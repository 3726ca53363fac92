(** The rule-update stream: a textual (and JSON) edit format shared by
    every consumer of flow-table churn — [sdnprobe verify --edits] and
    the long-running [sdnprobe watch] mode both parse exactly this.

    A stream is a sequence of {e batches}. Each batch is a list of
    operations applied atomically (one [Pipeline.apply] / one
    [Verify.Engine.update] per batch); the [commit] keyword ends a
    batch, and a trailing non-empty batch is committed implicitly at
    end of input.

    Line format ([#] comments and blank lines are skipped):

    {v
    remove 42
    add switch=3 table=0 priority=10 match=01xx0101 action=output:2 set=xxxx0101
    commit
    v}

    [match] and [set] are ternary cube strings over [0]/[1]/[x] (the
    {!Hspace.Cube.of_string} alphabet); [set] is optional (identity
    rewrite). Actions are [output:PORT], [drop] or [goto:TABLE] — the
    same syntax {!Openflow.Serial} uses for saved policies.

    This module is deliberately representation-only (strings and ints,
    no header-space or OpenFlow types), so it lives in [sdn_util] below
    every consumer; applying an edit to a live network is
    {!Pipeline.apply_op}'s job. *)

type action = Drop | Output of int | Goto_table of int

type add = {
  switch : int;
  table : int;
  priority : int;
  match_ : string;  (** ternary cube string, e.g. ["01xx0101"] *)
  set_field : string option;  (** [None] = identity rewrite *)
  action : action;
}

type op =
  | Add of add
  | Remove of int  (** entry id *)

type t = op list
(** One batch. *)

val op_to_line : op -> string

val op_of_line : string -> (op, string) result
(** Parse one [add]/[remove] line. [Error] on unknown keywords, missing
    or malformed fields, or non-ternary cube strings; [commit], blank
    lines and comments are {e not} ops (see {!parse}). *)

val parse : string -> (t list, string) result
(** Parse a whole stream into batches. Errors carry the 1-based line
    number. Empty batches (two [commit]s in a row, or a trailing
    [commit]) are dropped. *)

val to_string : t list -> string
(** Serialize batches back to the line format, each batch terminated by
    a [commit] line. [parse (to_string bs) = Ok bs] for well-formed
    batches. *)

val to_json : t list -> Json.t
(** [{"schema_version": 1, "batches": [[op, ...], ...]}] with each op
    as an object ([{"op": "remove", "id": 42}] /
    [{"op": "add", "switch": ..., ...}]). *)

val of_json : Json.t -> (t list, string) result
