module Memsim = Giantsan_memsim

type kind =
  | Heap_buffer_overflow
  | Heap_buffer_underflow
  | Stack_buffer_overflow
  | Stack_buffer_underflow
  | Global_buffer_overflow
  | Use_after_free
  | Invalid_free
  | Double_free
  | Free_not_at_start
  | Null_dereference
  | Wild_access

type t = { kind : kind; addr : int; size : int; detected_by : string }

let make ~kind ~addr ~size ~detected_by = { kind; addr; size; detected_by }

let kind_name = function
  | Heap_buffer_overflow -> "heap-buffer-overflow"
  | Heap_buffer_underflow -> "heap-buffer-underflow"
  | Stack_buffer_overflow -> "stack-buffer-overflow"
  | Stack_buffer_underflow -> "stack-buffer-underflow"
  | Global_buffer_overflow -> "global-buffer-overflow"
  | Use_after_free -> "heap-use-after-free"
  | Invalid_free -> "invalid-free"
  | Double_free -> "double-free"
  | Free_not_at_start -> "free-not-at-start"
  | Null_dereference -> "null-dereference"
  | Wild_access -> "wild-access"

let no_anchor = min_int

let classify_access heap ~addr ~anchor =
  let oracle = Memsim.Heap.oracle heap in
  let arena_size = Memsim.Arena.size (Memsim.Heap.arena heap) in
  if addr < 64 then Null_dereference
  else if addr >= arena_size then Wild_access
  else
    match Memsim.Oracle.state oracle addr with
    | Memsim.Oracle.Freed -> Use_after_free
    | Memsim.Oracle.Unallocated -> Wild_access
    | Memsim.Oracle.Redzone | Memsim.Oracle.Addressable -> (
      (* Addressable can still be reported faulty by a region check whose
         first bad byte we were not told; fall through to object layout. *)
      match Memsim.Oracle.owner oracle addr with
      | None -> Wild_access
      | Some obj ->
        let underflow =
          if anchor = no_anchor then addr < obj.Memsim.Memobj.base
          else addr < anchor
        in
        (match obj.Memsim.Memobj.kind with
        | Memsim.Memobj.Heap ->
          if underflow then Heap_buffer_underflow else Heap_buffer_overflow
        | Memsim.Memobj.Stack ->
          if underflow then Stack_buffer_underflow else Stack_buffer_overflow
        | Memsim.Memobj.Global -> Global_buffer_overflow))

let pp ppf t =
  Format.fprintf ppf "[%s] %s at address %d (operation size %d)" t.detected_by
    (kind_name t.kind) t.addr t.size

let to_string t = Format.asprintf "%a" pp t
