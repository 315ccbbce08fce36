(** The flight recorder: a typed, sim-timestamped journal of significant
    cross-layer events, correlated into control loops.

    Every layer of the stack appends {!event}s to a shared bounded ring
    (and, optionally, streams them as NDJSON lines through a writer
    callback, so long runs lose nothing to eviction). A congestion event
    mints a {e correlation id} at detection; the controller
    notification, the TE decision, the ARP/OpenFlow install, and the
    first post-reroute sample on the new path all reference that id, so
    each control loop decomposes into the named stages of the paper's
    Fig 12/15 timeline (detect -> notify -> decide -> install ->
    effective). {!Inspect} rebuilds the loops from a journal and renders
    them as a Chrome/Perfetto timeline; the journal is the only event
    stream the stack records.

    Instrumentation records into its engine's journal
    ([Planck_netsim.Engine.journal]), which is {!default} unless the
    engine belongs to a sharded group. Like {!Metrics}, {!default} is
    disabled by default and an instrumentation point costs a single
    branch when its journal is off. Event bodies allocate, so hot call
    sites must guard construction with [if Journal.enabled j]. *)

module Time = Planck_util.Time

(** Structured event bodies, one constructor per instrumentation point.
    String [flow] fields are [Flow_key.pp] renderings (stable across
    export/import and safe in CSV: no commas). *)
type body =
  | Packet_drop of { switch : string; port : int; mirror : bool }
      (** [netsim]: a frame dropped at [switch]'s egress [port];
          [mirror] distinguishes intentionally-oversubscribed monitor
          ports from data-plane loss. *)
  | Queue_high_water of {
      switch : string;
      occupancy : int;
      capacity : int;
      level : int;
    }
      (** [netsim]: shared-buffer occupancy crossed upward into eighth
          [level] (1-8) of [capacity]. *)
  | Tcp_retransmit of { flow : string; seq : int }
  | Tcp_timeout of { flow : string; rto_ns : int }
      (** [tcp]: retransmission timer fired; [rto_ns] is the timeout
          that expired (before backoff doubling). *)
  | Tcp_recovery_enter of { flow : string }
  | Congestion_detected of {
      switch : int;
      port : int;
      gbps : float;
      capacity_gbps : float;
      flows : int;
    }
      (** [collector]: mints the correlation id for a new control
          loop. *)
  | Estimate_update of { switch : int; flow : string; gbps : float }
  | Flow_promoted of { switch : int; flow : string; est_bytes : int }
      (** [collector]: the sketch tier's estimate for [flow] crossed the
          promotion threshold and the flow now owns an exact entry. *)
  | Flow_demoted of {
      switch : int;
      flow : string;
      fold_back_bytes : int;
      lifetime_ns : int;
    }
      (** [collector]: an idle promoted flow left the exact tier;
          [fold_back_bytes] were credited back to the sketch. *)
  | Controller_notified of { switch : int; port : int }
      (** [controller]: the congestion event arrived over the control
          channel. *)
  | Reroute_decision of {
      flow : string;
      old_mac : string;
      new_mac : string;
      bottleneck_gbps : float;
      mechanism : string;
    }
  | Reroute_install of { flow : string; mechanism : string }
      (** [controller]: the ARP packet_out was injected / the OpenFlow
          rule install completed at the switch. *)
  | Reroute_effective of { flow : string; new_mac : string; switch : int }
      (** [collector]: first sample of the flow carrying its new MAC —
          the vantage point the paper's Fig 16 response latency is
          measured at. *)
  | Phase_marker of { name : string; detail : string }
      (** [experiment]: run lifecycle (start, deployed, end, ...). *)
  | Custom of { source : string; name : string; args : (string * Json.t) list }
      (** Escape hatch; also what unknown event names parse back as. *)

type event = { ts : Time.t; corr : int option; body : body }

type t

val create : ?capacity:int -> ?enabled:bool -> unit -> t
(** [create ()] is an enabled journal holding the most recent
    [capacity] (default 65536) events. *)

val default : t
(** The process-wide journal: every engine's unless created with its
    own, and where phase markers and merged shard journals land. *)

val set_enabled : t -> bool -> unit
val enabled : t -> bool

val next_corr : t -> int
(** Mint a fresh correlation id (1, 2, ... above the journal's base;
    see {!shard_journal}). Independent of {!enabled}. *)

val record : t -> ts:Time.t -> ?corr:int -> body -> unit
(** Append an event. A single branch when the journal is disabled; when
    a {!set_writer} callback is installed the event is also streamed as
    one NDJSON line. *)

val events : t -> event list
(** Current contents, oldest first. *)

val length : t -> int

val capacity : t -> int
(** The ring bound given to {!create}; [max_int] for a
    {!shard_journal}, which never evicts. *)

val evicted : t -> int
(** Events discarded to make room since creation (the streamed NDJSON
    still has them); always 0 for a {!shard_journal}. *)

val clear : t -> unit
(** Empty the journal and reset the eviction and correlation counters
    (to the journal's id base), so consecutive runs mint the same ids. *)

val set_writer : t -> (string -> unit) option -> unit

(** {2 Sharded runs}

    The sharded engine gives every shard engine a private journal, so
    each domain records only into state it owns. After the domains
    join, {!merge_into} folds the per-shard journals back into one
    deterministic stream. *)

val shard_journal : shard:int -> t
(** An enabled journal for shard [shard]. Correlation ids for shard
    [s] are based at [s lsl 40] so ids stay globally unique; shard 0
    keeps base 0, preserving the single-domain id sequence, and
    {!clear} returns to the base. The whole run buffers here until the
    post-join merge, so a shard journal has no ring: it holds every
    event it records, never evicts ({!evicted} stays 0), and its
    storage grows with what it records — an empty one costs a few
    words. *)

val merge_into : t -> (int * t) list -> unit
(** [merge_into dst shards] appends every event of the [(shard id,
    journal)] pairs into [dst], stably sorted by (sim-time, shard id) —
    a deterministic interleaving that is the identity for one shard.
    Events stream through [dst]'s writer as they append. *)

(** {2 NDJSON codec}

    One event per line:
    [{"ts":<ns>,"src":"collector","ev":"congestion_detected","corr":1,...}].
    [src] groups events by emitting layer; the remaining fields are the
    body's. Unknown [ev] names parse as [Custom], so journals from newer
    builds still load. *)

val source_of_body : body -> string
val name_of_body : body -> string
val event_to_json : event -> Json.t
val event_of_json : Json.t -> (event, string) result
val to_ndjson : t -> string
val of_ndjson : string -> (event list, string) result
