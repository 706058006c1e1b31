type config = { cluster : Cluster.config; shards : int; latency : float }
type t = Cluster.t

let create ~rng cfg =
  Cluster.create_sharded ~rng ~shards:cfg.shards ~latency:cfg.latency
    cfg.cluster

let run = Cluster.run_sharded
let events_dispatched = Cluster.events_dispatched
