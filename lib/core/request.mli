(** The synthesis request schema, shared by the command line and the serve
    daemon.

    A request names a design (the target), an objective, a laxity (or, for
    a sweep, a list of laxities), the designer clock period, the workload's
    pass count and the seed.  Each field has one default and one domain,
    written here once; {!validate} is the one function that turns raw
    values into a request, or into an error that names the field.  The
    CLI's options are thin parsers from argument text to {!raw}, and the
    daemon maps a JSON frame to the same raw values, so both front ends
    accept exactly the same requests.  README.md tabulates the fields. *)

type raw =
  | Int of int
  | Float of float
  | Text of string  (** a string, or a value of no other kind *)
  | Items of raw list

val pp_raw : Format.formatter -> raw -> unit

type error = { field : string; reason : string }

val message : error -> string
(** ["FIELD REASON"], e.g. ["passes must be at least 1"]. *)

type 'a field

val name : 'a field -> string
(** The field's name: its JSON member and its CLI option. *)

val doc : 'a field -> string
(** The field's domain and default, for help texts. *)

val of_arg : 'a field -> string -> raw
(** The raw value of a command-line argument: an integer, a float, or
    text; a list field splits on commas (an empty argument is the empty
    list).  Lexical only: the domain is {!check}'s. *)

val check : 'a field -> raw -> ('a, error) result
(** The field's domain: the value, or the error naming the field. *)

val target : string field
val objective : Solution.objective field
val laxity : float field
val laxities : float list field
val clock : float field
val passes : int field
val seed : int field

val min_clock_ns : float
(** The clock's lower bound: the library's slowest delay over the 64
    states the scheduler may list for one operation. *)

type t = private {
  target : string;
  objective : Solution.objective;
  laxity : float;
  laxities : float list;
  passes : int;
  options : Driver.options;
      (** {!Driver.default_options} with the request's clock and seed *)
}

val validate : (string * raw) list -> (t, error) result
(** [validate fields] reads each schema field from its name in [fields]
    (other names are ignored, the first of a repeated name wins) and checks
    it; an absent field takes its default, and only the target has none.
    The error is the first field out of its domain, in the order target,
    objective, laxity, laxities, clock, passes, seed.  Every check is a
    comparison: validating loads no design. *)

val failure : exn -> (string * string) option
(** A rule id and a one-line message for the exceptions a design raises
    when it does not terminate under its workload: {!Impact_sim.Sim.Stuck},
    {!Impact_lang.Interp.Nonterminating} and {!Impact_rtl.Rtl_sim.Deadlock}.
    The front ends report these as diagnostics; [None] for any other
    exception. *)
