#!/bin/sh
# Repo check: build, tests, dune-file formatting. Run before every push.
set -e
cd "$(dirname "$0")"
# Process-wide mutable state: every top-level binding in lib whose value
# (on its line or the next) starts with a mutable constructor must be on
# this allowlist, so a new process-wide table fails here. Each entry is
# domain-safe or written only at module initialization (Engine.one and
# Engine.zero, the loop's shared counters, are never written at all).
allowed="Appendix.spec Appendix.translator Driver.plan Driver.plan_threaded
Engine.one Engine.zero Primitives.table Rope.arena Uid.key Value.arena
Value.ext_registry Value.tables"
for f in $(git ls-files 'lib/*.ml'); do
  awk -v file="$f" '
    function check(rhs) {
      if (rhs ~ /^(Stdlib\.)?(ref|lazy|Array\.(make|init)|Atomic\.make|Domain\.DLS\.new_key|Symtab\.interner|([A-Z][A-Za-z0-9_]*\.)+create)([^A-Za-z0-9_.]|$)/) {
        m = file; sub(/.*\//, "", m); sub(/\.ml$/, "", m)
        print toupper(substr(m, 1, 1)) substr(m, 2) "." name
      }
    }
    next_line && /^[ \t]*$/ { next }
    next_line { next_line = 0; r = $0; sub(/^[ \t]+/, "", r); check(r) }
    /^(let|and)( rec)? [a-z_][A-Za-z0-9_\x27]*( *:[^=]*)? *=/ {
      name = $0; sub(/^(let|and)( rec)? /, "", name); sub(/[ :=].*/, "", name)
      r = $0; sub(/^[^=]*= */, "", r)
      if (r == "") next_line = 1; else check(r)
    }' "$f"
done | while read -r binding; do
  case " $(echo $allowed) " in
    *" $binding "*) ;;
    *) echo "check.sh: $binding is process-wide mutable state not on the allowlist" >&2
       exit 1 ;;
  esac
done
dune build
dune runtest
dune build @fmt
dune exec bench/main.exe -- --smoke
# Front-end smoke: each malformed program gets a located diagnostic
# (FILE:LINE: lexical error: / syntax error:) and exit status 1, never an
# uncaught exception (cmdliner's "internal error", exit 125).
fe=/tmp/pagc_frontend_smoke
for case in overflow:4:lexical brace:5:lexical char:3:lexical colon:2:syntax; do
  name=${case%%:*}
  expect=${case#*:}
  line=${expect%%:*}
  kind=${expect#*:}
  case $name in
    overflow) printf 'program t;\nvar x : integer;\nbegin\n  x := 99999999999999999999999\nend.\n' ;;
    brace) printf 'program t;\nbegin\n  { never closed\nend.\n' ;;
    char) printf 'program t;\nbegin\n  writeln(1 ? 2)\nend.\n' ;;
    colon) printf 'program t;\nvar x integer;\nbegin\nend.\n' ;;
  esac >"$fe.$name.pas"
  status=0
  out=$(dune exec bin/pagc.exe -- "$fe.$name.pas" -o "$fe.s" 2>&1) || status=$?
  if [ "$status" != 1 ] || ! printf '%s\n' "$out" | grep -q "^$fe.$name.pas:$line: $kind error: " \
    || printf '%s\n' "$out" | grep -q "internal error"; then
    echo "check.sh: $name: expected '$fe.$name.pas:$line: $kind error:' and exit 1, got exit $status: $out" >&2
    exit 1
  fi
done
# agrun smoke: README's two generator commands must print their values
# sequentially and on three machines under every schedule; under
# --builtin-appendix every positional argument is a sentence.
for m in 1 3; do
  for sched in static dynamic steal; do
    out=$(dune exec bin/agrun.exe -- --builtin-appendix --machines $m \
      --schedule $sched "let x = 2 in 1 + 2 * x ni" 2>/dev/null)
    printf '%s\n' "$out" | grep -q "^  value = 5$" || {
      echo "check.sh: agrun --builtin-appendix -m $m --schedule $sched: expected value = 5, got: $out" >&2
      exit 1
    }
    out=$(dune exec bin/agrun.exe -- examples/expr.ag --machines $m \
      --schedule $sched "1 + 2 * 3" 2>/dev/null)
    printf '%s\n' "$out" | grep -q "^  value = 7$" || {
      echo "check.sh: agrun examples/expr.ag -m $m --schedule $sched: expected value = 7, got: $out" >&2
      exit 1
    }
  done
done
# agrun malformed-input smoke: a spec calling an unknown function, one
# calling a function with the wrong arity, one naming an undeclared
# precedence terminal, one with an overflowing %split size, a sentence
# with an overflowing literal, and an unbound identifier (sequentially and
# under every machine count and schedule) each get a diagnostic (spec:LINE:,
# error: or scan error:) and exit 1, never an uncaught exception
# (cmdliner's "internal error", exit 125).
bad=/tmp/agrun_malformed_smoke
sed 's/st_create()/st_creat()/' examples/expr.ag >"$bad.function.ag"
sed 's/mul(\$1.value, \$3.value)/mul($1.value)/' examples/expr.ag >"$bad.arity.ag"
sed 's/%left TIMES/%left TIMEZ/' examples/expr.ag >"$bad.prec.ag"
sed 's/%split 64/%split 99999999999999999999999/' examples/expr.ag >"$bad.split.ag"
malformed() {
  expect=$1
  shift
  status=0
  out=$(dune exec bin/agrun.exe -- "$@" 2>&1) || status=$?
  if [ "$status" != 1 ] || ! printf '%s\n' "$out" | grep -q -- "^$expect" \
    || printf '%s\n' "$out" | grep -q "internal error"; then
    echo "check.sh: agrun $*: expected '$expect' and exit 1, got exit $status: $out" >&2
    exit 1
  fi
}
malformed "error: production main_expr -> expr: unknown function st_creat" \
  "$bad.function.ag" "1 + 2"
malformed "error: production expr -> expr TIMES expr: mul expects 2 arguments" \
  "$bad.arity.ag" "1 + 2"
malformed "spec:19: " "$bad.prec.ag" "1 + 2"
malformed "spec:14: " "$bad.split.ag" "1 + 2"
malformed "scan error: character 0: " examples/expr.ag "99999999999999999999999 + 1"
malformed "error: st_lookup: unbound identifier x" examples/expr.ag "x + 1"
for m in 1 3; do
  for sched in static dynamic steal; do
    malformed "error: st_lookup: unbound identifier x" --builtin-appendix \
      --machines $m --schedule $sched x
  done
done
# CLI-range smoke: a run size out of range (machines or batch below 1, a
# granularity not finite and positive) is a usage error naming its flag,
# never an uncaught exception (cmdliner's "internal error", exit 125).
range=/tmp/pagc_range_smoke
for args in "--machines 0" "--machines 0 --schedule steal" \
  "--machines 0 --transport domains" \
  "--machines 0 --edit-session examples/primes.edits" \
  "--machines 3 --granularity=0" "--machines 3 --granularity=-1" \
  "--machines 3 --granularity=nan" "--machines 3 --granularity=inf" \
  "--machines 3 --batch-edits=-2 --edit-session examples/primes.edits"; do
  status=0
  out=$(dune exec bin/pagc.exe -- $args examples/primes.pas -o "$range.s" 2>&1) || status=$?
  case $args in *granularity*) flag=granularity ;; *batch-edits*) flag=batch-edits ;; *) flag=machines ;; esac
  if [ "$status" = 0 ] || [ "$status" = 125 ] || printf '%s\n' "$out" | grep -q "internal error" \
    || ! printf '%s\n' "$out" | grep -q -- "--$flag"; then
    echo "check.sh: pagc $args: expected a usage error naming --$flag, got exit $status: $out" >&2
    exit 1
  fi
done
for args in "--machines 0" "--batch-edits 0"; do
  status=0
  out=$(dune exec bin/agrun.exe -- $args --builtin-appendix "1 + 2" 2>&1) || status=$?
  if [ "$status" = 0 ] || [ "$status" = 125 ] || printf '%s\n' "$out" | grep -q "internal error" \
    || ! printf '%s\n' "$out" | grep -q -- "${args% *}"; then
    echo "check.sh: agrun $args: expected a usage error naming ${args% *}, got exit $status: $out" >&2
    exit 1
  fi
done
# Telemetry smoke: a traced parallel compile must produce parseable
# Chrome-trace JSON with at least one event.
trace=/tmp/pagc_trace_smoke.json
dune exec bin/pagc.exe -- --machines 3 --trace "$trace" --report \
  examples/primes.pas -o /tmp/pagc_trace_smoke.s 2>/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool "$trace" >/dev/null
  python3 -c "import json,sys; es=json.load(open('$trace'))['traceEvents']; sys.exit(0 if len(es)>0 else 1)"
else
  grep -q '"traceEvents"' "$trace"
fi
# Gantt smoke: --gantt draws the simulator's log on stderr, one row per
# machine (parser, eval-a..eval-c, librarian) and the message summary.
gantt=$(dune exec bin/pagc.exe -- --machines 3 --gantt examples/primes.pas \
  -o /tmp/pagc_gantt_smoke.s 2>&1 >/dev/null)
for row in parser eval-a eval-b eval-c librarian messages:; do
  printf '%s\n' "$gantt" | grep -q "^ *$row " || {
    echo "check.sh: no '$row' row in the --gantt chart" >&2
    exit 1
  }
done
# Work-stealing schedule smoke: the steal schedule must emit the same
# assembly as the sequential compile, modulo L<n>/P<n> label numbering
# (label draws depend on the per-machine uid stripes).
dune exec bin/pagc.exe -- examples/primes.pas -o /tmp/pagc_seq_smoke.s 2>/dev/null
dune exec bin/pagc.exe -- --machines 3 --schedule steal \
  examples/primes.pas -o /tmp/pagc_steal_smoke.s 2>/dev/null
sed 's/[LP][0-9][0-9]*/X/g' /tmp/pagc_seq_smoke.s > /tmp/pagc_seq_smoke.masked
sed 's/[LP][0-9][0-9]*/X/g' /tmp/pagc_steal_smoke.s > /tmp/pagc_steal_smoke.masked
cmp /tmp/pagc_seq_smoke.masked /tmp/pagc_steal_smoke.masked
# The same steal loop on real domains: one domain, two, two under --dag,
# and four machines, which run on min(4, cores) domains. Domains steal
# runs the combined evaluator's task graph (spine rule instances plus
# static visit tasks) and ignores --dag: the DAG runtime's projection
# bookkeeping is single-threaded.
for flags in "--machines 1" "--machines 2" "--machines 2 --dag" "--machines 4"; do
  dune exec bin/pagc.exe -- --transport domains --schedule steal $flags \
    examples/primes.pas -o /tmp/pagc_steal_domains_smoke.s 2>/dev/null
  sed 's/[LP][0-9][0-9]*/X/g' /tmp/pagc_steal_domains_smoke.s > /tmp/pagc_steal_domains_smoke.masked
  cmp /tmp/pagc_seq_smoke.masked /tmp/pagc_steal_domains_smoke.masked
done
# A long spine: examples/skewed.pas is Progen.skewed_program ~chain:200,
# whose 200-step expression chains put most rule instances on the spine
# and leave the side expressions to static visit tasks. Its domains steal
# compile at 2 and 4 machines must emit the sequential compile's masked
# assembly, and --explain on domains steal (provenance puts every node
# on the spine) must verify its slice.
dune exec bin/pagc.exe -- examples/skewed.pas -o /tmp/pagc_skewed_seq.s 2>/dev/null
sed 's/[LP][0-9][0-9]*/X/g' /tmp/pagc_skewed_seq.s > /tmp/pagc_skewed_seq.masked
for m in 2 4; do
  dune exec bin/pagc.exe -- --transport domains --schedule steal --machines $m \
    examples/skewed.pas -o /tmp/pagc_skewed_steal.s 2>/dev/null
  sed 's/[LP][0-9][0-9]*/X/g' /tmp/pagc_skewed_steal.s > /tmp/pagc_skewed_steal.masked
  cmp /tmp/pagc_skewed_seq.masked /tmp/pagc_skewed_steal.masked
done
dune exec bin/pagc.exe -- --transport domains --schedule steal --machines 2 \
  --explain root.code examples/skewed.pas >/dev/null 2>&1
# Domains transport smoke: the static protocol on real domains (all
# machines on the calling domain at 1, one fragment per core beyond) must
# emit the sequential compile's masked assembly.
for m in 1 2 4; do
  dune exec bin/pagc.exe -- --transport domains --machines $m \
    examples/primes.pas -o /tmp/pagc_domains_smoke.s 2>/dev/null
  sed 's/[LP][0-9][0-9]*/X/g' /tmp/pagc_domains_smoke.s > /tmp/pagc_domains_smoke.masked
  cmp /tmp/pagc_seq_smoke.masked /tmp/pagc_domains_smoke.masked
done
# Multi-tenant service smoke: three tenants over two simulated machines;
# pagc exits nonzero unless every tenant's resident code matches a
# from-scratch compile.
dune exec bin/pagc.exe -- --serve examples/three_tenants.serve >/dev/null
# Batched-edit smoke: the serve loop with merged waves and an interactive
# edit session applying its script in batched waves must both end with
# every resident masked-equal to a from-scratch compile (pagc exits
# nonzero otherwise).
dune exec bin/pagc.exe -- --serve examples/three_tenants.serve \
  --batch-edits 4 >/dev/null
dune exec bin/pagc.exe -- --machines 3 --batch-edits 2 \
  --edit-session examples/primes.edits examples/primes.pas >/dev/null
# The same script one edit at a time (Session.edit): primes_edit1 is a
# literal edit, which keeps the resident decomposition; primes_edit2
# changes two statements, which rebuilds it. pagc exits nonzero unless
# the resident code matches a from-scratch compile.
dune exec bin/pagc.exe -- --machines 3 \
  --edit-session examples/primes.edits examples/primes.pas >/dev/null
# The same service on real domains, one edit per chunk and chunks of four.
dune exec bin/pagc.exe -- --serve examples/three_tenants.serve \
  --transport domains >/dev/null
dune exec bin/pagc.exe -- --serve examples/three_tenants.serve \
  --transport domains --batch-edits 4 >/dev/null
# DAG evaluation smoke: the DAG-native steal schedule must emit the same
# masked assembly as the sequential compile, and --explain on a DAG run
# must verify the class-level provenance (occurrence fan-out edges)
# against the reference dependency closure.
dune exec bin/pagc.exe -- --dag --machines 3 --schedule steal \
  examples/primes.pas -o /tmp/pagc_dag_smoke.s 2>/dev/null
sed 's/[LP][0-9][0-9]*/X/g' /tmp/pagc_dag_smoke.s > /tmp/pagc_dag_smoke.masked
cmp /tmp/pagc_seq_smoke.masked /tmp/pagc_dag_smoke.masked
dune exec bin/pagc.exe -- --dag --machines 3 --schedule steal \
  --explain root.code examples/primes.pas >/dev/null 2>&1
# The static schedule under --dag: the subtree memo plus interned wire
# payloads on the simulator, and the subtree memo alone on two domains
# (compile_repetitive's configuration). Both must emit the sequential
# compile's masked assembly.
for flags in "--machines 3" "--transport domains --machines 2"; do
  dune exec bin/pagc.exe -- $flags --dag \
    examples/primes.pas -o /tmp/pagc_dag_static_smoke.s 2>/dev/null
  sed 's/[LP][0-9][0-9]*/X/g' /tmp/pagc_dag_static_smoke.s > /tmp/pagc_dag_static_smoke.masked
  cmp /tmp/pagc_seq_smoke.masked /tmp/pagc_dag_static_smoke.masked
done
# Provenance smoke: --explain exits nonzero unless the recorded slice
# equals the reference engine's dependency closure; --profile-json must
# produce parseable JSON with a critical path no longer than the makespan.
dune exec bin/pagc.exe -- --machines 4 --explain root.code \
  examples/primes.pas >/dev/null 2>&1
# The same check on two domains, with and without --dag: static visits
# there fire from the rules' references and record provenance by rule id.
for flags in "" "--dag"; do
  dune exec bin/pagc.exe -- --transport domains --machines 2 $flags \
    --explain root.code examples/primes.pas >/dev/null 2>&1
done
profile=/tmp/pagc_profile_smoke.json
dune exec bin/pagc.exe -- --machines 4 --profile-json "$profile" \
  examples/primes.pas -o /tmp/pagc_profile_smoke.s 2>/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 -c "import json,sys; p=json.load(open('$profile')); sys.exit(0 if 0 < p['critical_s'] <= p['makespan_s'] else 1)"
else
  grep -q '"critical_s"' "$profile"
fi
echo "check.sh: all green"
