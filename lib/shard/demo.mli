(** Deterministic sharded-data-path figure: policy plan, a fixed-seed
    {!Stackwork} run replayed at several shard counts and policies, and
    a cross-shard {!Shard_echo} exchange.  Pure function of [seed] —
    pinned byte-for-byte by [test/golden/shards.expected]. *)

val render : seed:int -> string
