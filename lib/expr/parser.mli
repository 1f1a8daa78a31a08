(** Parsing of tensor contraction expressions.

    Two concrete syntaxes are accepted:

    - the Einstein form used in the paper:
      [C\[a,b,c,d\] = A\[a,e,b,f\] * B\[d,f,c,e\]]
      (commas inside brackets optional, whitespace insignificant);
    - the compact TCCG benchmark form: [abcd-aebf-dfce].

    Parsing is purely syntactic; semantic validation (each index in exactly
    two of the three tensors, etc.) lives in {!Classify}. *)

type error = { position : int; message : string }

val pp_error : Format.formatter -> error -> unit

val parse : string -> (Ast.t, error) result
(** Auto-detects the syntax: input containing ['='] is parsed as the
    Einstein form, otherwise as the TCCG form. *)
