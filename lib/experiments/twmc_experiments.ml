(** Reproduction drivers for every table and figure in the paper's
    evaluation (see DESIGN.md for the per-experiment index). *)

module Profile = Profile
module Report = Report
module Table3 = Table3
module Table4 = Table4
module Fig3 = Fig3
module Fig56 = Fig56
module Ablations = Ablations
module Figures = Figures

type runner =
  csv:(string -> string option) -> Profile.t -> Format.formatter -> unit
(** Runs one experiment and prints its table; [csv stem] says where, if
    anywhere, to also write the CSV file named [stem]. *)

(** Every experiment by name, in the order [twmc experiment all] runs
    them.  [twmc experiment] and [bench/main.exe] both dispatch through
    this table. *)
let all : (string * runner) list =
  [ ("schedules", fun ~csv:_ _ ppf -> Figures.schedules ppf);
    ("fig1", fun ~csv _ ppf -> ignore (Figures.fig1 ?out_csv:(csv "fig1") ppf));
    ("fig4", fun ~csv _ ppf -> ignore (Figures.fig4 ?out_csv:(csv "fig4") ppf));
    ( "table3",
      fun ~csv p ppf -> ignore (Table3.run ?out_csv:(csv "table3") p ppf) );
    ( "table4",
      fun ~csv p ppf -> ignore (Table4.run ?out_csv:(csv "table4") p ppf) );
    ("fig3", fun ~csv p ppf -> ignore (Fig3.run ?out_csv:(csv "fig3") p ppf));
    ( "fig56",
      fun ~csv p ppf -> ignore (Fig56.run ?out_csv:(csv "fig56") p ppf) );
    ( "ablation-ds",
      fun ~csv p ppf ->
        ignore (Ablations.run_ds_vs_dr ?out_csv:(csv "ablation_ds") p ppf) );
    ( "ablation-eta",
      fun ~csv p ppf ->
        ignore (Ablations.run_eta ?out_csv:(csv "ablation_eta") p ppf) );
    ( "ablation-rho",
      fun ~csv p ppf ->
        ignore (Ablations.run_rho ?out_csv:(csv "ablation_rho") p ppf) ) ]

(** Every name {!find} accepts: the {!all} names, plus ["fig5"] and
    ["fig6"] for the run that draws both figures. *)
let names = List.map fst all @ [ "fig5"; "fig6" ]

(** The runner a name from {!names} selects. *)
let find = function
  | "fig5" | "fig6" -> List.assoc_opt "fig56" all
  | name -> List.assoc_opt name all
