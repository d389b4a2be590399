(** Action compilation: statement lists staged into closures over a slot
    array.

    The paper's P2V emits C code for rule actions; the analog here is
    staging — an {!Action.expr} or statement list is traversed {e once},
    resolving helper-function lookups, operator dispatch and every
    descriptor variable's name, and yields a closure evaluated on every
    rule invocation.

    A rule's descriptor variables are numbered by a slot table
    ({!slots}); at run time the rule's descriptors live in an {!env}
    array indexed by those numbers, so a closure reads [D3] as one array
    access and an assignment is one array write.  Semantics are identical
    to {!Eval}, the reference interpreter over {!Pattern.Binding}
    (property-tested against it for every T-rule of the shipped rule
    files); the cost of interpretation is paid at translation time instead
    of per firing.

    Compilation also front-loads the static checks: unknown helpers and
    assignments to protected descriptors are detected when the rule is
    compiled, not when it first fires. *)

type env = Descriptor.t array
(** A rule invocation's descriptors, one per slot.  Unbound slots hold
    {!Descriptor.empty} (output descriptors start empty and are filled by
    action statements).  Statements update the array in place. *)

type slots = string array
(** A slot table: descriptor variable [slots.(i)] lives at [env.(i)]. *)

val slots : string list -> slots
(** Number the names in order of first appearance, dropping repeats. *)

val action_vars : Action.expr list -> Action.stmt list -> string list
(** Every descriptor variable the tests and statements mention (repeats
    included), so each gets a slot even when it is only ever read: an
    unset descriptor reads as empty. *)

val slot : slots -> string -> int
(** The index of a descriptor variable.  Called at translation time only.
    @raise Invalid_argument when the table has no such variable. *)

(** The staging functions take the slot resolver (usually
    [slot table]); every name is resolved before the closure is
    returned. *)

val expr :
  Helper_env.t -> (string -> int) -> Action.expr -> (env -> Prairie_value.Value.t)
(** @raise Helper_env.Unknown_helper at compile time for unregistered
    helpers.
    @raise Eval.Rule_error at compile time for whole-descriptor reads
    outside a copy. *)

val test : Helper_env.t -> (string -> int) -> Action.expr -> (env -> bool)

val stmts :
  protected:string list ->
  Helper_env.t ->
  (string -> int) ->
  Action.stmt list ->
  (env -> unit)
(** Run the statements in order, updating the array in place.
    @raise Eval.Rule_error at compile time when a statement assigns to a
    protected (LHS) descriptor. *)
