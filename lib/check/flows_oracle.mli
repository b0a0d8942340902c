(** Differential oracle for the flow study ({!Ldlp_flowtable.Study}).

    Each case draws a small random study configuration (64, 256 or 1024
    modeled slots, a batch size from 1 to 1024, a flow count, a source
    count and a stream length), runs {!Ldlp_flowtable.Study.run} on it and
    replays the same {!Ldlp_traffic.Flowmix} arrival stream through a
    naive textbook reference: per-set MRU lists over slot hashes, each
    LDLP batch visited in (set, slot hash, arrival) order, and a store
    that answers [Some k] for every flow [k].  Every row must agree with
    its reference on hits, misses, evictions, found count and the digest
    of delivered states. *)

val run : seed:int -> cases:int -> (int, string) result
(** [Ok cases], or the first row that differs from its reference, with
    the case's configuration.  Used by [ldlp_repro check] and
    [ldlp_repro flows]. *)
