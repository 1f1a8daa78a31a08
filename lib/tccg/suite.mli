(** The TCCG tensor-contraction benchmark suite (Springer & Bientinesi),
    as used in the paper's evaluation: 48 contractions, grouped exactly as
    §V describes —

    - entries 1–8: tensor-matrix contractions from machine learning;
    - entries 9–11: two-electron integral transforms (AO→MO basis);
    - entries 12–30: contractions from the CCSD coupled-cluster method
      (entry 12 and entries 20–30 are the 4D = 4D * 4D cases);
    - entries 31–48: the 18 CCSD(T) triples contractions (9 SD1 variants
      contracting over an occupied index, 9 SD2 variants contracting over a
      virtual index; SD2_1 is the paper's [abcdef-gdab-efgc]).

    Index strings for entries named in the paper are exact; the remaining
    ones are reconstructed to match each group's dimensionality, contraction
    structure and layout conventions (see DESIGN.md).  CCSD(T) extents
    follow the occupied/virtual split (small h ≈ 16, large p ≈ 48); other
    groups use representative sizes of comparable arithmetic work. *)

open Tc_expr

type group = Ml | Ao_mo | Ccsd | Ccsd_t_sd1 | Ccsd_t_sd2

val group_to_string : group -> string

type entry = {
  id : int;  (** 1-based position, matching the paper's figures *)
  name : string;  (** e.g. ["ml_1"], ["ccsd_12"], ["sd2_1"] *)
  group : group;
  expr : string;  (** TCCG string form *)
  sizes : (char * int) list;
}

val all : entry list
(** All 48, in figure order. *)

val by_group : group -> entry list

val sd2 : entry list
(** Entries 40–48, the SD2 subset of Figs. 6–8. *)

val sd2_1 : entry
(** The Fig. 8 benchmark. *)

val find : string -> entry option
(** Lookup by [name]. *)

val problem : entry -> Problem.t
(** @raise Invalid_argument if an entry is malformed (guarded by tests). *)

val scaled_problem : entry -> scale:float -> Problem.t
(** The entry's contraction with every extent scaled by [scale] (min 1) —
    used for small-size functional validation of the big benchmarks. *)
