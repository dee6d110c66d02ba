type t = {
  now : unit -> float;
  mutable sinks : Sink.t array;
  mutable enabled : bool;
  mutable emitted : int;
}

let create ~now () = { now; sinks = [||]; enabled = false; emitted = 0 }

let null = create ~now:(fun () -> 0.) ()

let enabled t = t.enabled

let set_enabled t b = t.enabled <- b

let attach t s =
  t.sinks <- Array.append t.sinks [| s |];
  t.enabled <- true

let detach t name =
  t.sinks <- Array.of_list (List.filter (fun s -> Sink.name s <> name)
                              (Array.to_list t.sinks));
  if Array.length t.sinks = 0 then t.enabled <- false

let sinks t = Array.to_list t.sinks

let emitted t = t.emitted

(* A plain loop: [Array.iter] with a closure capturing [time], [node]
   and [ev] would allocate that closure on every event. *)
let deliver t ~time ~node ev =
  t.emitted <- t.emitted + 1;
  let sinks = t.sinks in
  for i = 0 to Array.length sinks - 1 do
    Sink.emit (Array.unsafe_get sinks i) ~time ~node ev
  done

let emit t ~node ev = if t.enabled then deliver t ~time:(t.now ()) ~node ev

let emit_at t ~time ~node ev = if t.enabled then deliver t ~time ~node ev
