(** The serving layer's index contract, re-exported from
    {!Index_iface}.

    A backend is simply a [string Index_iface.driver] whose keys are
    binary-comparable encodings ({!Bw_util.Key_codec}) — the same record
    the harness, the stress checker and the shard router consume, so a
    single tree, an instrumented driver or a range-partitioned forest
    ({!Bw_shard.route}) all serve identically. All workers share the one
    underlying index through its lock-free API — the backend record adds
    no synchronization.

    A syntactically invalid wire key surfaces as
    {!Index_iface.Bad_key}; the server answers it with an ERR reply
    rather than crashing the worker. *)

type t = Index_iface.backend
