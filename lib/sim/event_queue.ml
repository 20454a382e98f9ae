(* A binary min-heap on (time, seq), slot 0 unused, stored as three
   parallel arrays so that a push allocates nothing once the arrays have
   grown: times unboxed in a float array, insertion sequence numbers and
   payloads beside them.  Every payload slot outside the heap holds
   [filler], so a popped payload is not kept reachable by the queue. *)
type 'a t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable size : int;
  mutable next_seq : int;
  filler : 'a;
}

let create ~filler () =
  {
    times = Float.Array.create 0;
    seqs = [||];
    payloads = [||];
    size = 0;
    next_seq = 0;
    filler;
  }

let is_empty t = t.size = 0
let length t = t.size

(* whether slot [i] precedes the entry (time, seq) *)
let[@inline] before t i time seq =
  let ti = Float.Array.get t.times i in
  ti < time || (ti = time && t.seqs.(i) < seq)

let[@inline] move t ~src ~dst =
  Float.Array.set t.times dst (Float.Array.get t.times src);
  t.seqs.(dst) <- t.seqs.(src);
  t.payloads.(dst) <- t.payloads.(src)

let[@inline] place t i time seq payload =
  Float.Array.set t.times i time;
  t.seqs.(i) <- seq;
  t.payloads.(i) <- payload

(* Past 256 words a fresh array is allocated in the major heap, and
   [Array.make] with a young initial value would force a minor collection
   first; the filler is long-lived, so growing forces none. *)
let grow t =
  let cap = Array.length t.payloads in
  if t.size + 1 >= cap then begin
    let ncap = max 16 (2 * cap) in
    let times = Float.Array.make ncap 0.0 in
    Float.Array.blit t.times 0 times 0 cap;
    let seqs = Array.make ncap 0 in
    Array.blit t.seqs 0 seqs 0 cap;
    let payloads = Array.make ncap t.filler in
    Array.blit t.payloads 0 payloads 0 cap;
    t.times <- times;
    t.seqs <- seqs;
    t.payloads <- payloads
  end

(* the entry's insertion, inlined into both pushes so that [time] is
   never boxed *)
let[@inline] insert t time payload =
  if Float.is_nan time then invalid_arg "Event_queue.push: NaN time";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  grow t;
  t.size <- t.size + 1;
  (* sift up from the new last slot *)
  let i = ref t.size in
  while !i > 1 && not (before t (!i / 2) time seq) do
    move t ~src:(!i / 2) ~dst:!i;
    i := !i / 2
  done;
  place t !i time seq payload

let push t ~time payload = insert t time payload
let push_after t clock ~delay payload = insert t (!clock +. delay) payload

let min_time_exceeds t limit =
  if t.size = 0 then invalid_arg "Event_queue.min_time_exceeds: empty queue";
  Float.Array.get t.times 1 > limit

let pop_min t =
  if t.size = 0 then invalid_arg "Event_queue.pop_min: empty queue";
  let top = t.payloads.(1) in
  let n = t.size - 1 in
  let time = Float.Array.get t.times t.size
  and seq = t.seqs.(t.size)
  and payload = t.payloads.(t.size) in
  t.size <- n;
  t.payloads.(n + 1) <- t.filler;
  if n > 0 then begin
    (* sift the old last entry down from the root *)
    let i = ref 1 and settled = ref false in
    while not !settled do
      let l = 2 * !i in
      let child =
        if l + 1 <= n && before t (l + 1) (Float.Array.get t.times l) t.seqs.(l)
        then l + 1
        else l
      in
      if child <= n && before t child time seq then begin
        move t ~src:child ~dst:!i;
        i := child
      end
      else settled := true
    done;
    place t !i time seq payload
  end;
  top

let pop_min_into t clock =
  if t.size = 0 then invalid_arg "Event_queue.pop_min_into: empty queue";
  clock := Float.Array.get t.times 1;
  pop_min t

let pop t =
  if t.size = 0 then None
  else
    let time = Float.Array.get t.times 1 in
    Some (time, pop_min t)

let peek_time t = if t.size = 0 then None else Some (Float.Array.get t.times 1)

let clear t =
  t.size <- 0;
  t.times <- Float.Array.create 0;
  t.seqs <- [||];
  t.payloads <- [||]
