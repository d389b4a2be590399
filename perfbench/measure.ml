(* Clock and sample statistics shared by every workload. *)

let now_ns () = Monotonic_clock.now ()

let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(* [f ()] and its duration in milliseconds. *)
let time_ms f =
  let t0 = now_ns () in
  let v = f () in
  (v, seconds_since t0 *. 1000.0)

(* Linear interpolation between closest ranks (the "inclusive" method of
   Python's statistics.quantiles); nan on an empty sample. *)
let quantile samples q =
  let s = Array.copy samples in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let i = int_of_float h in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((h -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median samples = quantile samples 0.5

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* [f ()], adding its duration in ns to [acc]. *)
let add_ns acc f =
  let t0 = now_ns () in
  let v = f () in
  acc := !acc +. Int64.to_float (Int64.sub (now_ns ()) t0);
  v

let geomean = function
  | [] -> nan
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
      /. float_of_int (List.length xs))

(* A growable sample buffer, so the timed loops append without building
   lists. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
  let length t = t.len
end

(* A seeded Fisher-Yates shuffle. *)
let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a
