type exit_reason =
  | Halted
  | Faulted of Pm2_mvm.Interp.fault
  | Killed

type state =
  | Ready
  | Running
  | Blocked
  | Migrating
  | Exited of exit_reason

type t = {
  id : int;
  mutable node : int;
  mutable state : state;
  mutable ctx : Pm2_mvm.Interp.context;
  mutable slots_head : Pm2_vmem.Layout.addr;
  mutable stack_slot : Pm2_vmem.Layout.addr;
  registry : (int, Pm2_vmem.Layout.addr) Hashtbl.t;
  mutable next_key : int;
  mutable pending_migration : int option;
}

let make ~id ~node ~ctx =
  {
    id;
    node;
    state = Ready;
    ctx;
    slots_head = 0;
    stack_slot = 0;
    registry = Hashtbl.create 8;
    next_key = 1;
    pending_migration = None;
  }

let is_exited t = match t.state with Exited _ -> true | _ -> false

let register_ptr t addr =
  let key = t.next_key in
  t.next_key <- key + 1;
  Hashtbl.replace t.registry key addr;
  key

let unregister_ptr t key =
  if not (Hashtbl.mem t.registry key) then
    invalid_arg (Printf.sprintf "Thread.unregister_ptr: unknown key %d" key);
  Hashtbl.remove t.registry key

let registered_cells t = Hashtbl.fold (fun _ addr acc -> addr :: acc) t.registry []
