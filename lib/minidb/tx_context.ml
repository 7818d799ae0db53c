(** Ambient transaction context for plan evaluation.

    The executor's scan leaf reads rows without a [Database.t] in hand,
    for SELECTs, their subqueries, the rows an UPDATE/DELETE modifies and
    the audit's provenance and reenactment queries alike, so the
    database publishes the MVCC facts a scan needs here before running a
    statement (and restores the previous values afterwards — statements
    never yield mid-execution, so the dynamic scoping is safe even under
    the cooperative scheduler):

    - [viewer]: the transaction id of the session executing the current
      statement, [0] when it runs autocommit;
    - [snapshot]: the clock bound for committed-version visibility: the
      viewer transaction's begin snapshot, or [max_int] for an autocommit
      statement (which sees everything committed so far);
    - [active]: whether the owning database has any open transaction at
      all. While [false], live scans take the fast [Table.scan] path — a
      database that never uses transactions pays nothing for MVCC. *)

let viewer : int ref = ref 0
let snapshot : int ref = ref max_int
let active : bool ref = ref false
