(** Dimension splitting.

    §IV of the paper lists "splitting each dimension into multiple
    dimensions" as a search-space extension that "helps ensure that there
    are enough thread blocks" — and, just as importantly, it lets one
    physical dimension feed {e two} mapping dimensions: a tensor-times-
    matrix contraction has a single external index per input, so without
    splitting there is nothing left to register-tile.

    Splitting index [i] of extent [N] by [factor] replaces it with
    [i] (extent [factor], the fast part) immediately followed by a fresh
    index (extent [N / factor], the slow part) in every tensor containing
    [i].  Because the two parts stay adjacent fast-first, this is a pure
    relabeling of the same memory. *)

open Tc_tensor

val fresh_index : Problem.t -> Index.t option
(** The first letter of [a..z] unused by the contraction; [None] if all 26
    are taken. *)

val split :
  Problem.t -> Index.t -> factor:int -> (Problem.t * Index.t, string) result
(** [split p i ~factor] returns the rewritten problem and the fresh slow
    index.  [Error] if [i] is foreign, [factor] does not divide the
    extent, is not in [2, extent), or no fresh letter is available. *)

type applied = {
  original : Index.t;
  fast_extent : int;
  slow : Index.t;
  slow_extent : int;
}

val auto : Problem.t -> Problem.t * applied list
(** Heuristic used by the generator on register-starved contractions: for
    each input whose side has exactly one external index with extent at
    least 32 and divisible by 16, split it so a fast part of extent 16 can
    feed the thread-block dimension and the slow part the register
    tile.  Returns the (possibly unchanged) problem and what was
    applied. *)
