type t = {
  structure : string;
  n_keys : int;
  levels : int;
  nodes : int;
  node_bytes : int;
  total_bytes : int;
  keys_per_node : int;
  fanout : int;
}
