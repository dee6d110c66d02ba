(** The [pm2-ctl/1] wire protocol — the versioned line/JSON encoding of
    the {!Session} control plane.

    {2 Frame format}

    Every frame is one line of JSON carrying the version marker
    [{"v":"pm2-ctl/1", ...}]. Three frame shapes exist:

    {v
    request   {"v":"pm2-ctl/1","id":ID,"req":"NAME", ...params}
    reply     {"v":"pm2-ctl/1","id":ID,"ok":"NAME", ...payload}
              {"v":"pm2-ctl/1","id":ID,"err":"KIND","msg":"..."}
    event     {"v":"pm2-ctl/1","sub":SUB,"ev":{"t":...,"node":...,
               "name":...,...}}
    v}

    [id] is a client-chosen correlation id echoed on the reply. Event
    frames are pushed asynchronously to subscribed clients ([ev] is one
    event's {!Pm2_obs.Event.write} fields stamped with virtual time and
    node, exactly the JSON-lines shape of {!Pm2_obs.Stream}).

    {2 Totality}

    No decode path raises: malformed JSON, a wrong or missing version,
    unknown request names, missing or ill-typed fields, and bad
    sub-grammars (fault specs, balancer policies) all yield a typed
    [Bad_request] (or the more precise kind) — pinned by golden and fuzz
    tests in [test/test_svc.ml].

    {2 Versioning rules}

    The version string names an incompatible generation, like the
    [PM2C] codec versions: adding request names or {e optional} fields
    is compatible (decoders ignore unknown fields); changing a frame
    shape, a field meaning or an error kind bumps to [pm2-ctl/2].
    Servers refuse frames whose [v] they do not speak with
    [Bad_request]. *)

module Json = Pm2_obs.Json

val version : string
(** ["pm2-ctl/1"]. *)

(** {1 Typed errors on the wire} *)

type err_kind =
  | Bad_request
  | Unknown_entry
  | Unknown_thread
  | Bad_node
  | Rejected
  | Unsupported
  | Shutting_down
  | Runtime

type err = { kind : err_kind; msg : string }

val err_kind_to_string : err_kind -> string
val err_of_error : Session.error -> err

(** {1 Requests} *)

type request =
  | Hello
  | Submit of Session.submit_spec
  | Step of { max_events : int }
  | Run of { until : float option }
  | Query_threads
  | Query_metrics
  | Query_heat
  | Query_status
  | Migrate of { tid : int; dest : int }
  | Migrate_group of { tids : int list; dest : int }
  | Inject_faults of { spec : Pm2_fault.Plan.spec }
      (** carried on the wire in the [--faults] grammar
          ({!Pm2_fault.Plan.spec_of_string}) *)
  | Balance of { policy : Pm2_loadbal.Balancer.policy; period : float }
      (** policy in the {!Pm2_loadbal.Balancer.Policy} grammar *)
  | Checkpoint
  | Subscribe
  | Unsubscribe of { sub : int }
  | Shutdown

(** {1 Replies} *)

(** The wire rendering of {!Session.status} ([lost] as rendered error
    strings, the fault summary only when a plan is enabled). *)
type status = {
  s_time : float;
  s_domains : int;
      (* always 1: the cluster runs one sequential scheduler. Kept
         because every pm2-ctl/1 status decoder requires the field *)
  s_live : int;
  s_threads : int;
  s_migrations : int;
  s_groups : int;
  s_negotiations : int;
  s_aborted : int;
  s_mean_latency : float option;
  s_faults : string option;
  s_retransmits : int;
  s_duplicates : int;
  s_give_ups : int;
  s_checkpointing : bool;
  s_checkpoints : int;
  s_page_saves : int;
  s_dedup_pages : int;
  s_restored : int;
  s_stranded : int;
  s_lost : string list;
}

type response =
  | Welcome of { proto : string; server : string; nodes : int; entries : string list }
  | Submitted of { tid : int }
  | Stepped of { events : int; time : float; live : int; pending : int }
  | Ran of { time : float; live : int }
  | Threads of Session.thread_info list
  | Metrics of Json.t
  | Heat of (string * float) list
  | Status of status
  | Migrating
  | Group of { gid : int }
  | Injected of { spec : string }  (** canonical fault-spec rendering *)
  | Balancing of { policy : string }  (** canonical policy rendering *)
  | Checkpointed of { snapshots : int }
  | Subscribed of { sub : int }
  | Unsubscribed
  | Bye

(** {1 Codec} *)

val encode_request : id:int -> request -> string
(** One line, no trailing newline. *)

val decode_request : string -> (int * request, int * err) result
(** Server side. The [int] on both arms is the correlation id to echo
    (0 when it could not be recovered). Never raises. *)

val encode_reply : id:int -> (response, err) result -> string

val encode_event :
  sub:int -> time:float -> node:int -> Pm2_obs.Event.t -> string

(** What a client reads: replies interleaved with subscription pushes. *)
type frame =
  | Reply of int * (response, err) result
  | Event of { sub : int; body : Json.t }
      (** [body] is the [ev] object: [t], [node], [name], payload *)

val decode_frame : string -> (frame, err) result
(** Client side. Never raises. *)

(** {1 In-process service} *)

(** [apply session req] serves one request against a resident session —
    the shared dispatcher of the socket daemon and in-process clients.
    [Subscribe] is refused here ([Unsupported]): streaming needs a
    front end that owns a push channel; the daemon intercepts it (and
    serves [Run] incrementally) before falling through to [apply].
    [server] names the daemon in the [Hello] reply. *)
val apply : ?server:string -> Session.t -> request -> (response, err) result
