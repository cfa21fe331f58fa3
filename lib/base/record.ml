type policy = Key | Exact | No_growth | No_drop | Note | Wall | Collapse

type value = Int of int | Float of float | Str of string | Bool of bool | Null

type 'r column = {
  name : string;
  policy : policy;
  decimals : int;
  get : 'r -> value;
}

let col name policy get = { name; policy; decimals = 0; get }
let fcol ~decimals name policy get = { name; policy; decimals; get }

(* A table keeps only what it prints: the column headers and each row's
   cells, already paired with their column's precision. *)
type table = {
  t_name : string;
  headers : (string * policy) list;
  rows : (string * int * value) list list;
}

let table t_name columns rows =
  {
    t_name;
    headers = List.map (fun c -> (c.name, c.policy)) columns;
    rows =
      List.map
        (fun r -> List.map (fun c -> (c.name, c.decimals, c.get r)) columns)
        rows;
  }

type t = { bench : string; sweep : string; tables : table list }

let schema = "cfc-record/1"

let policy_name = function
  | Key -> "key"
  | Exact -> "exact"
  | No_growth -> "no_growth"
  | No_drop -> "no_drop"
  | Note -> "note"
  | Wall -> "wall"
  | Collapse -> "collapse"

(* Valid UTF-8 passes through; a byte outside it is written as the
   code point of the same number, so the text stays valid JSON. *)
let add_string b s =
  Buffer.add_char b '"';
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let d = String.get_utf_8_uchar s !i in
    let len = Uchar.utf_decode_length d in
    (match s.[!i] with
    | '"' -> Buffer.add_string b "\\\""
    | '\\' -> Buffer.add_string b "\\\\"
    | '\n' -> Buffer.add_string b "\\n"
    | c when Char.code c < 0x20 || not (Uchar.utf_decode_is_valid d) ->
      Printf.bprintf b "\\u%04x" (Char.code c)
    | _ -> Buffer.add_substring b s !i len);
    i := !i + if Uchar.utf_decode_is_valid d then len else 1
  done;
  Buffer.add_char b '"'

let add_value b decimals = function
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float x when Float.is_finite x -> Printf.bprintf b "%.*f" decimals x
  | Float _ | Null -> Buffer.add_string b "null"
  | Str s -> add_string b s
  | Bool v -> Buffer.add_string b (string_of_bool v)

let add_fields b add fields =
  Buffer.add_char b '{';
  List.iteri
    (fun i field ->
      if i > 0 then Buffer.add_string b ", ";
      add field)
    fields;
  Buffer.add_char b '}'

let add_table b t =
  Buffer.add_string b "    ";
  add_string b t.t_name;
  Buffer.add_string b ": {\n      \"columns\": ";
  add_fields b
    (fun (name, policy) ->
      add_string b name;
      Buffer.add_string b ": ";
      add_string b (policy_name policy))
    t.headers;
  Buffer.add_string b ",\n      \"rows\": [";
  List.iteri
    (fun i row ->
      Buffer.add_string b (if i = 0 then "\n        " else ",\n        ");
      add_fields b
        (fun (name, decimals, v) ->
          add_string b name;
          Buffer.add_string b ": ";
          add_value b decimals v)
        row)
    t.rows;
  Buffer.add_string b (if t.rows = [] then "]\n    }" else "\n      ]\n    }")

let to_json r =
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\n  \"schema\": ";
  add_string b schema;
  Buffer.add_string b ",\n  \"bench\": ";
  add_string b r.bench;
  Buffer.add_string b ",\n  \"sweep\": ";
  add_string b r.sweep;
  Buffer.add_string b ",\n  \"tables\": {\n";
  List.iteri
    (fun i t ->
      if i > 0 then Buffer.add_string b ",\n";
      add_table b t)
    r.tables;
  Buffer.add_string b "\n  }\n}\n";
  Buffer.contents b

let write path r =
  if path = "-" then print_string (to_json r)
  else begin
    let oc = open_out path in
    output_string oc (to_json r);
    close_out oc
  end
