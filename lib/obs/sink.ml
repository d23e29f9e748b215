type t = {
  metrics : Metrics.t;
  journal : Journal.t;
}

let create () = { metrics = Metrics.create (); journal = Journal.create () }

let null = { metrics = Metrics.null; journal = Journal.null }

let event t ~time ?severity scope ev = Journal.record t.journal ~time ?severity scope ev

let to_json t =
  Json.Obj
    [ ("metrics", Metrics.to_json t.metrics); ("journal", Journal.to_json t.journal) ]
