(* Sentinel-node SPSC linked queue. [head] always points at a consumed
   node whose [next] chain holds the live elements; [tail] is the last
   node the producer linked. The producer mutates only [tail] (and the
   old tail's [next]); the consumer mutates only [head]. Publication
   order — payload write, then Atomic [next] store — gives the consumer
   a happens-before edge on the payload without any lock.

   The debug role check is the channel's role confinement check, exact
   per domain, so N shards running the same shard body are told apart.
   With [set_debug true], the first pushing domain claims the producer
   slot and the first popping/peeking domain the consumer slot (CAS, so
   a racing second claimant is caught too), and any later access from a
   different domain raises. *)

type 'a node = { value : 'a option; next : 'a node option Atomic.t }

type 'a t = {
  mutable head : 'a node;
  mutable tail : 'a node;
  producer : int Atomic.t;  (* Domain.id of the claimed role; -1 unset *)
  consumer : int Atomic.t;
}

let debug = Atomic.make false
let set_debug on = Atomic.set debug on

let check_role slot role =
  if Atomic.get debug then begin
    let self = (Domain.self () :> int) in
    let claimed = Atomic.get slot in
    if claimed = self then ()
    else if claimed = -1 && Atomic.compare_and_set slot (-1) self then ()
    else
      failwith
        (Printf.sprintf
           "Spsc: second %s domain on an SPSC channel (domain %d, role held \
            by domain %d)"
           role self (Atomic.get slot))
  end

let node value = { value; next = Atomic.make None }

let create () =
  let sentinel = node None in
  {
    head = sentinel;
    tail = sentinel;
    producer = Atomic.make (-1);
    consumer = Atomic.make (-1);
  }

let push t v =
  check_role t.producer "producer";
  let n = node (Some v) in
  Atomic.set t.tail.next (Some n);
  t.tail <- n

let peek t =
  check_role t.consumer "consumer";
  match Atomic.get t.head.next with None -> None | Some n -> n.value

let pop t =
  check_role t.consumer "consumer";
  match Atomic.get t.head.next with
  | None -> None
  | Some n ->
      t.head <- n;
      n.value

let rec drain t f =
  match pop t with
  | None -> ()
  | Some v ->
      f v;
      drain t f
