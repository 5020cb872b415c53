type kind = Heap | Stack | Global
type status = Live | Quarantined | Recycled

type t = {
  id : int;
  kind : kind;
  base : int;
  size : int;
  block_base : int;
  block_len : int;
  mutable status : status;
}

let block_end t = t.block_base + t.block_len
let contains t addr = addr >= t.base && addr < t.base + t.size

let kind_name = function
  | Heap -> "heap"
  | Stack -> "stack"
  | Global -> "global"

let status_name = function
  | Live -> "live"
  | Quarantined -> "quarantined"
  | Recycled -> "recycled"

let pp ppf t =
  Format.fprintf ppf "%s object #%d [%d, %d) (%d bytes, %s)" (kind_name t.kind)
    t.id t.base (t.base + t.size) t.size (status_name t.status)
