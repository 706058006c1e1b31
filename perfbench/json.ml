(* A small JSON reader for checking the daemon's responses. The checker
   deliberately does not use Serve.Wire, the parser under test. *)

type t = Null | Bool of bool | Num of float | Str of string | Arr of t list | Obj of (string * t) list

exception Error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec ws () =
    if !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t' || s.[!pos] = '\n' || s.[!pos] = '\r')
    then (incr pos; ws ())
  in
  let expect c = if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected %c" c) in
  let literal w v =
    if !pos + String.length w <= n && String.sub s !pos (String.length w) = w then (
      pos := !pos + String.length w;
      v)
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      if c = '"' then Buffer.contents b
      else if c = '\\' then begin
        if !pos >= n then fail "bad escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
            if !pos + 4 > n then fail "bad \\u escape";
            pos := !pos + 4;
            Buffer.add_char b '?'
        | c -> Buffer.add_char b c);
        go ()
      end
      else (Buffer.add_char b c; go ())
    in
    go ()
  in
  let num () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    ws ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
        incr pos;
        ws ();
        if !pos < n && s.[!pos] = '}' then (incr pos; Obj [])
        else
          let rec members acc =
            ws ();
            let k = str () in
            ws ();
            expect ':';
            let v = value () in
            ws ();
            if !pos < n && s.[!pos] = ',' then (incr pos; members ((k, v) :: acc))
            else (expect '}'; Obj (List.rev ((k, v) :: acc)))
          in
          members []
    | '[' ->
        incr pos;
        ws ();
        if !pos < n && s.[!pos] = ']' then (incr pos; Arr [])
        else
          let rec items acc =
            let v = value () in
            ws ();
            if !pos < n && s.[!pos] = ',' then (incr pos; items (v :: acc))
            else (expect ']'; Arr (List.rev (v :: acc)))
          in
          items []
    | '"' -> Str (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> num ()
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing input";
  v

let member k = function Obj ms -> List.assoc_opt k ms | _ -> None
let num k v = match member k v with Some (Num f) -> Some f | _ -> None
let str k v = match member k v with Some (Str s) -> Some s | _ -> None
