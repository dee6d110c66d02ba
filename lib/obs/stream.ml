(* The JSON-lines streaming sink: one flat object per event, written to
   a file as it happens — the export path for long-lived services where
   post-mortem dumps come too late. Periodic metrics snapshots
   interleave as "metrics.snapshot" lines (see [write_metrics]);
   consumers dispatch on the "name" field. *)

type t = {
  oc : out_channel;
  buf : Buffer.t; (* one line, reused *)
  mutable lines : int;
}

let open_file path = { oc = open_out path; buf = Buffer.create 256; lines = 0 }

let lines t = t.lines

let write_line t fields =
  Buffer.clear t.buf;
  let w = Json.writer t.buf in
  Json.obj_start w;
  fields w;
  Json.obj_end w;
  Buffer.add_char t.buf '\n';
  Buffer.output_buffer t.oc t.buf;
  t.lines <- t.lines + 1

let on_event t ~time ~node ev =
  write_line t (fun w ->
      Json.num_field w "t" time;
      Json.int_field w "node" node;
      Event.write w ev)

let sink t = Sink.make ~name:"stream" (fun ~time ~node ev -> on_event t ~time ~node ev)

let write_metrics t ~time metrics =
  write_line t (fun w ->
      Json.num_field w "t" time;
      Json.str_field w "name" "metrics.snapshot";
      Json.key w "metrics";
      Json.value w (Metrics.to_json metrics))

let close t = close_out t.oc
