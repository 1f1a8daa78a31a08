open Tc_expr

type group = Ml | Ao_mo | Ccsd | Ccsd_t_sd1 | Ccsd_t_sd2

let group_to_string = function
  | Ml -> "ML"
  | Ao_mo -> "AO-MO"
  | Ccsd -> "CCSD"
  | Ccsd_t_sd1 -> "CCSD(T) SD1"
  | Ccsd_t_sd2 -> "CCSD(T) SD2"

type entry = {
  id : int;
  name : string;
  group : group;
  expr : string;
  sizes : (char * int) list;
}

(* Uniform sizes for a span of letters. *)
let span first last n =
  List.init
    (Char.code last - Char.code first + 1)
    (fun k -> (Char.chr (Char.code first + k), n))

(* CCSD(T) extents: occupied (h) indices a,b,c are small, virtual (p)
   indices d,e,f are large; the contraction index g is occupied for SD1 and
   virtual for SD2. *)
let h = 16
let p = 48
let sd_sizes g_extent = span 'a' 'c' h @ span 'd' 'f' p @ [ ('g', g_extent) ]

let ml =
  [
    (1, "abc-bda-dc", span 'a' 'c' 312 @ [ ('d', 296) ]);
    (2, "abc-dca-bd", span 'a' 'c' 312 @ [ ('d', 296) ]);
    (3, "abc-acd-db", span 'a' 'c' 312 @ [ ('d', 296) ]);
    (4, "abc-adc-db", span 'a' 'c' 312 @ [ ('d', 296) ]);
    (5, "abcd-dbea-ec", [ ('a', 96); ('b', 96); ('c', 24); ('d', 96); ('e', 96) ]);
    (6, "abcd-deca-be", [ ('a', 96); ('b', 24); ('c', 96); ('d', 96); ('e', 96) ]);
    (7, "ab-acd-dbc", [ ('a', 384); ('b', 384); ('c', 128); ('d', 128) ]);
    (8, "ab-cad-dcb", [ ('a', 384); ('b', 384); ('c', 128); ('d', 128) ]);
  ]

let ao_mo =
  [
    (9, "abcd-ebcd-ae", span 'a' 'e' 72);
    (10, "abcd-aecd-be", span 'a' 'e' 72);
    (11, "abcd-abed-ce", span 'a' 'e' 72);
  ]

let ccsd =
  [
    (* Eq. 1 of the paper. *)
    (12, "abcd-aebf-dfce", span 'a' 'd' 48 @ span 'e' 'f' 32);
    (* one-particle (4D x 2D) terms *)
    (13, "abcd-ebad-ce", span 'a' 'e' 72);
    (14, "abcd-eacd-be", span 'a' 'e' 72);
    (15, "abcd-aebd-ec", span 'a' 'e' 72);
    (16, "abcd-abed-ec", span 'a' 'e' 72);
    (17, "abcd-ebcd-ea", span 'a' 'e' 72);
    (18, "abcd-be-aecd", span 'a' 'e' 72);
    (19, "abcd-ce-abed", span 'a' 'e' 72);
    (* two-particle (4D = 4D * 4D) terms *)
    (20, "abcd-efab-cdef", span 'a' 'd' 48 @ span 'e' 'f' 32);
    (21, "abcd-eafb-fdec", span 'a' 'd' 48 @ span 'e' 'f' 32);
    (22, "abcd-aebf-fdce", span 'a' 'd' 48 @ span 'e' 'f' 32);
    (23, "abcd-aefb-fdce", span 'a' 'd' 48 @ span 'e' 'f' 32);
    (24, "abcd-eafd-bfce", span 'a' 'd' 48 @ span 'e' 'f' 32);
    (25, "abcd-efab-efcd", span 'a' 'd' 64 @ span 'e' 'f' 16);
    (26, "abcd-feab-cdef", span 'a' 'd' 40 @ span 'e' 'f' 40);
    (27, "abcd-aebf-cfde", span 'a' 'd' 48 @ span 'e' 'f' 32);
    (28, "abcd-eafb-cedf", span 'a' 'd' 48 @ span 'e' 'f' 32);
    (29, "abcd-aefd-bfec", span 'a' 'd' 48 @ span 'e' 'f' 32);
    (30, "abcd-efad-cbef", span 'a' 'd' 48 @ span 'e' 'f' 32);
  ]

(* SD1: t3[h3,h2,h1,p6,p5,p4] += t2[h7,pX,pY,hZ] * v2[h.,h.,p.,h7]; the 9
   NWChem variants permute which occupied index and which virtual pair the
   t2 operand carries. *)
let sd1 =
  [
    (31, "abcdef-gfec-abdg");
    (32, "abcdef-gfdc-abeg");
    (33, "abcdef-gedc-abfg");
    (34, "abcdef-gfeb-acdg");
    (35, "abcdef-gfdb-aceg");
    (36, "abcdef-gedb-acfg");
    (37, "abcdef-gfea-bcdg");
    (38, "abcdef-gfda-bceg");
    (39, "abcdef-geda-bcfg");
  ]

(* SD2: t3[h3,h2,h1,p6,p5,p4] += t2[p7,pX,h.,h.] * v2[p.,p.,p7,hZ]; the
   paper names SD2_1 explicitly as abcdef-gdab-efgc. *)
let sd2_strings =
  [
    (40, "abcdef-gdab-efgc");
    (41, "abcdef-geab-dfgc");
    (42, "abcdef-gfab-degc");
    (43, "abcdef-gdac-efgb");
    (44, "abcdef-geac-dfgb");
    (45, "abcdef-gfac-degb");
    (46, "abcdef-gdbc-efga");
    (47, "abcdef-gebc-dfga");
    (48, "abcdef-gfbc-dega");
  ]

let make group prefix ord (id, expr, sizes) =
  { id; name = Printf.sprintf "%s_%d" prefix ord; group; expr; sizes }

let all =
  List.concat
    [
      List.mapi
        (fun k (id, expr, sizes) -> make Ml "ml" (k + 1) (id, expr, sizes))
        ml;
      List.mapi
        (fun k (id, expr, sizes) -> make Ao_mo "aomo" (k + 1) (id, expr, sizes))
        ao_mo;
      List.mapi
        (fun k (id, expr, sizes) ->
          make Ccsd "ccsd" (k + 1) (id, expr, sizes))
        ccsd;
      List.mapi
        (fun k (id, expr) ->
          make Ccsd_t_sd1 "sd1" (k + 1) (id, expr, sd_sizes h))
        sd1;
      List.mapi
        (fun k (id, expr) ->
          make Ccsd_t_sd2 "sd2" (k + 1) (id, expr, sd_sizes p))
        sd2_strings;
    ]

let by_group g = List.filter (fun e -> e.group = g) all
let sd2 = by_group Ccsd_t_sd2
let sd2_1 = List.hd sd2
let find name = List.find_opt (fun e -> e.name = name) all

let problem e =
  match Problem.of_string e.expr ~sizes:e.sizes with
  | Ok p -> p
  | Error msg ->
      invalid_arg (Printf.sprintf "Suite entry %s (%s): %s" e.name e.expr msg)

let scaled_problem e ~scale =
  let sizes =
    List.map
      (fun (i, n) ->
        (i, max 1 (int_of_float (Float.round (float_of_int n *. scale)))))
      e.sizes
  in
  match Problem.of_string e.expr ~sizes with
  | Ok p -> p
  | Error msg ->
      invalid_arg (Printf.sprintf "Suite entry %s scaled: %s" e.name msg)
