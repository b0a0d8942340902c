(** The paper's tables and figures, one entry each, in the order
    [ldlp_repro all] prints them and [test/golden/] pins them.  This is
    the only list of them: the [ldlp_repro] figure subcommands and [all],
    the golden generator and the reproduction section of
    [bench/main.exe] all iterate {!all}.  Adding a figure means adding
    one entry here. *)

type context
(** What a figure may read: the fidelity, seed and worker domains, and
    the Figure 5/6 rate sweep, which runs at most once per context. *)

val context :
  ?domains:int -> ?params:Ldlp_model.Params.t -> ?seed:int -> unit -> context
(** Defaults: quick fidelity, seed 1996, the pool's default domain count.
    Output is identical for any [domains]. *)

(** The context fields a figure reads, in increasing order. *)
type inputs =
  | Fixed
      (** None: the calibrated trace (seed 42) or an analytic model. *)
  | Seeded  (** The seed and the domain count. *)
  | Swept  (** The fidelity parameters as well. *)

type t = {
  name : string;  (** Golden stem, e.g. ["fig5"] or ["ablation_batch"]. *)
  command : string;  (** The [ldlp_repro] subcommand that prints it. *)
  doc : string;  (** That subcommand's help line. *)
  inputs : inputs;
  render : context -> string;
}

val all : t list
