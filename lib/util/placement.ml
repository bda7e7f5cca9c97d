let count n = max 1 (min n (Domain.recommended_domain_count ()))

let run n body =
  let guard f =
    try Ok (f ()) with e -> Error (e, Printexc.get_raw_backtrace ())
  in
  let spawned =
    Array.init (n - 1) (fun i -> Domain.spawn (fun () -> body (i + 1)))
  in
  let first = guard (fun () -> body 0) in
  Array.map
    (function Ok v -> v | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
    (Array.append [| first |]
       (Array.map (fun d -> guard (fun () -> Domain.join d)) spawned))
