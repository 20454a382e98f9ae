(* A 4-ary min-heap on (time, seq), rooted at position 0, whose entries
   are the unboxed time, the insertion sequence number and a payload
   slot, in three parallel arrays: a sift moves two unboxed numbers and
   an int, and never writes a pointer.  The payloads sit in their own
   array, indexed by slot: a payload is written once on push and cleared
   once on pop.  The slots array also holds the free slots, at the
   positions past the heap, so a push takes the slot at position [size]
   and a pop puts the root's slot back at the position it vacates.
   Every payload slot outside the heap holds [filler], so a popped
   payload is not kept reachable by the queue. *)
type 'a t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable slots : int array;
  mutable payloads : 'a array;
  mutable size : int;
  mutable next_seq : int;
  filler : 'a;
}

let create ~filler () =
  {
    times = Float.Array.create 0;
    seqs = [||];
    slots = [||];
    payloads = [||];
    size = 0;
    next_seq = 0;
    filler;
  }

let is_empty t = t.size = 0
let length t = t.size

(* whether position [i] precedes the entry (time, seq) *)
let[@inline] before t i time seq =
  let ti = Float.Array.get t.times i in
  ti < time || (ti = time && t.seqs.(i) < seq)

let[@inline] move t ~src ~dst =
  Float.Array.set t.times dst (Float.Array.get t.times src);
  t.seqs.(dst) <- t.seqs.(src);
  t.slots.(dst) <- t.slots.(src)

let[@inline] place t i time seq slot =
  Float.Array.set t.times i time;
  t.seqs.(i) <- seq;
  t.slots.(i) <- slot

(* Past 256 words a fresh array is allocated in the major heap, and
   [Array.make] with a young initial value would force a minor collection
   first; the filler is long-lived, so growing forces none.  The
   discarded payload array is filled too: its slots that were written
   while it was in the major heap stay in the remembered set until the
   next minor collection, which would otherwise promote the payloads
   they still point to, popped or not. *)
let grow t =
  let cap = Array.length t.slots in
  let ncap = max 16 (2 * cap) in
  let times = Float.Array.make ncap 0.0 in
  Float.Array.blit t.times 0 times 0 cap;
  let seqs = Array.make ncap 0 in
  Array.blit t.seqs 0 seqs 0 cap;
  let slots = Array.init ncap (fun i -> i) in
  Array.blit t.slots 0 slots 0 cap;
  let payloads = Array.make ncap t.filler in
  Array.blit t.payloads 0 payloads 0 cap;
  Array.fill t.payloads 0 cap t.filler;
  t.times <- times;
  t.seqs <- seqs;
  t.slots <- slots;
  t.payloads <- payloads

(* the entry's insertion, inlined into both pushes so that [time] is
   never boxed *)
let[@inline] insert t time payload =
  if Float.is_nan time then invalid_arg "Event_queue.push: NaN time";
  if t.size = Array.length t.slots then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let slot = t.slots.(t.size) in
  t.payloads.(slot) <- payload;
  (* sift up from the new last position: every pending entry was pushed
     earlier, so a parent at the same time stays above *)
  let i = ref t.size in
  t.size <- t.size + 1;
  while !i > 0 && Float.Array.get t.times ((!i - 1) lsr 2) > time do
    move t ~src:((!i - 1) lsr 2) ~dst:!i;
    i := (!i - 1) lsr 2
  done;
  place t !i time seq slot

let push t ~time payload = insert t time payload
let push_after t clock ~delay payload = insert t (!clock +. delay) payload

let min_time_exceeds t limit =
  if t.size = 0 then invalid_arg "Event_queue.min_time_exceeds: empty queue";
  Float.Array.get t.times 0 > limit

(* Remove the root and return its payload: the last entry sifts down
   from the root, and the root's slot, now free, takes the position the
   heap gave up. *)
let pop_min t =
  let top = t.slots.(0) in
  let payload = t.payloads.(top) in
  t.payloads.(top) <- t.filler;
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let time = Float.Array.get t.times n and seq = t.seqs.(n) and slot = t.slots.(n) in
    let i = ref 0 and settled = ref false in
    while not !settled do
      let first = (4 * !i) + 1 in
      if first >= n then settled := true
      else begin
        (* the least of the up to four children *)
        let child = ref first in
        let last = if first + 3 < n then first + 3 else n - 1 in
        for c = first + 1 to last do
          if before t c (Float.Array.get t.times !child) t.seqs.(!child) then child := c
        done;
        if before t !child time seq then begin
          move t ~src:!child ~dst:!i;
          i := !child
        end
        else settled := true
      end
    done;
    place t !i time seq slot
  end;
  t.slots.(n) <- top;
  payload

let pop_min_into t clock =
  if t.size = 0 then invalid_arg "Event_queue.pop_min_into: empty queue";
  clock := Float.Array.get t.times 0;
  pop_min t

let pop t =
  if t.size = 0 then None
  else
    let time = Float.Array.get t.times 0 in
    Some (time, pop_min t)

let peek_time t = if t.size = 0 then None else Some (Float.Array.get t.times 0)

(* the dropped payload array is filled for the reason [grow] gives *)
let clear t =
  Array.fill t.payloads 0 (Array.length t.payloads) t.filler;
  t.size <- 0;
  t.times <- Float.Array.create 0;
  t.seqs <- [||];
  t.slots <- [||];
  t.payloads <- [||]

(* A drained queue's free slots are a permutation of every slot and its
   payloads are all filler, so its arrays serve another empty queue as
   they are. *)
let transfer ~from t =
  if from.size > 0 || t.size > 0 then invalid_arg "Event_queue.transfer: pending events";
  if Array.length from.slots > Array.length t.slots then begin
    if from.filler != t.filler then Array.fill from.payloads 0 (Array.length from.payloads) t.filler;
    t.times <- from.times;
    t.seqs <- from.seqs;
    t.slots <- from.slots;
    t.payloads <- from.payloads;
    from.times <- Float.Array.create 0;
    from.seqs <- [||];
    from.slots <- [||];
    from.payloads <- [||]
  end
