(** Hand-written lexer for the MiniDB SQL dialect.

    Keywords are case-insensitive; identifiers are lowercased. String
    literals use single quotes with [''] as the escape for a quote. *)

type token =
  | Kw of string  (** uppercased keyword *)
  | Ident of string  (** lowercased identifier *)
  | Int_lit of int
  | Float_lit of float
  | Str_lit of string
  | Sym of string  (** punctuation / operator *)
  | Eof

type t = { tokens : (token * int) array; mutable pos : int }

let keywords =
  [ "SELECT"; "FROM"; "WHERE"; "GROUP"; "BY"; "HAVING"; "ORDER"; "LIMIT";
    "AS"; "AND"; "OR"; "NOT"; "BETWEEN"; "LIKE"; "IN"; "IS"; "NULL";
    "TRUE"; "FALSE"; "INSERT"; "INTO"; "VALUES"; "UPDATE"; "SET"; "DELETE";
    "CREATE"; "DROP"; "TABLE"; "DISTINCT"; "ASC"; "DESC"; "COUNT"; "SUM";
    "AVG"; "MIN"; "MAX"; "INT"; "INTEGER"; "FLOAT"; "REAL"; "DOUBLE";
    "TEXT"; "VARCHAR"; "CHAR"; "BOOL"; "BOOLEAN"; "PROVENANCE"; "PRECISION";
    "JOIN"; "LEFT"; "OUTER"; "INNER"; "ON"; "UNION"; "ALL"; "CASE"; "WHEN";
    "THEN"; "ELSE"; "END"; "EXISTS"; "OF"; "INDEX"; "ORDERED"; "EXPLAIN";
    "BEGIN";
    "COMMIT"; "ROLLBACK"; "TRANSACTION"; "WORK" ]

let keyword_set =
  let h = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.add h k ()) keywords;
  h

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize (input : string) : t =
  let n = String.length input in
  let toks = ref [] in
  let emit tok pos = toks := (tok, pos) :: !toks in
  let i = ref 0 in
  while !i < n do
    let c = input.[!i] in
    let start = !i in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '-' && !i + 1 < n && input.[!i + 1] = '-' then begin
      (* line comment *)
      while !i < n && input.[!i] <> '\n' do incr i done
    end
    else if is_ident_start c then begin
      while !i < n && is_ident_char input.[!i] do incr i done;
      let word = String.sub input start (!i - start) in
      let upper = String.uppercase_ascii word in
      if Hashtbl.mem keyword_set upper then emit (Kw upper) start
      else emit (Ident (String.lowercase_ascii word)) start
    end
    else if is_digit c then begin
      while !i < n && is_digit input.[!i] do incr i done;
      if !i < n && input.[!i] = '.' && !i + 1 < n && is_digit input.[!i + 1]
      then begin
        incr i;
        while !i < n && is_digit input.[!i] do incr i done;
        let s = String.sub input start (!i - start) in
        emit (Float_lit (float_of_string s)) start
      end
      else begin
        let digits = String.sub input start (!i - start) in
        match int_of_string_opt digits with
        | Some v -> emit (Int_lit v) start
        | None ->
          Errors.parse_error ~position:start
            (Printf.sprintf "integer literal %s is out of range (above %d)"
               digits max_int)
      end
    end
    else if c = '\'' then begin
      let buf = Buffer.create 16 in
      incr i;
      let closed = ref false in
      while not !closed do
        if !i >= n then Errors.parse_error ~position:start "unterminated string literal";
        if input.[!i] = '\'' then
          if !i + 1 < n && input.[!i + 1] = '\'' then begin
            Buffer.add_char buf '\'';
            i := !i + 2
          end
          else begin
            closed := true;
            incr i
          end
        else begin
          Buffer.add_char buf input.[!i];
          incr i
        end
      done;
      emit (Str_lit (Buffer.contents buf)) start
    end
    else begin
      let two =
        if !i + 1 < n then Some (String.sub input !i 2) else None
      in
      match two with
      | Some (("<=" | ">=" | "<>" | "!=" | "||") as s) ->
        emit (Sym (if s = "!=" then "<>" else s)) start;
        i := !i + 2
      | _ -> (
        match c with
        | '(' | ')' | ',' | '.' | ';' | '=' | '<' | '>' | '+' | '-' | '*' | '/' ->
          emit (Sym (String.make 1 c)) start;
          incr i
        | _ ->
          Errors.parse_error ~position:start
            (Printf.sprintf "unexpected character %C" c))
    end
  done;
  emit Eof n;
  { tokens = Array.of_list (List.rev !toks); pos = 0 }

let peek (t : t) = fst t.tokens.(t.pos)
let peek_pos (t : t) = snd t.tokens.(t.pos)

let peek2 (t : t) =
  if t.pos + 1 < Array.length t.tokens then fst t.tokens.(t.pos + 1) else Eof

let advance (t : t) =
  if t.pos + 1 < Array.length t.tokens then t.pos <- t.pos + 1

let next (t : t) =
  let tok = peek t in
  advance t;
  tok

let token_to_string = function
  | Kw k -> k
  | Ident s -> s
  | Int_lit i -> string_of_int i
  | Float_lit f -> string_of_float f
  | Str_lit s -> Printf.sprintf "'%s'" s
  | Sym s -> s
  | Eof -> "<eof>"

let expect (t : t) tok =
  let got = peek t in
  if got = tok then advance t
  else
    Errors.parse_error ~position:(peek_pos t)
      (Printf.sprintf "expected %s, found %s" (token_to_string tok)
         (token_to_string got))

let expect_kw t k = expect t (Kw k)
let expect_sym t s = expect t (Sym s)

let accept (t : t) tok = if peek t = tok then (advance t; true) else false
let accept_kw t k = accept t (Kw k)
let accept_sym t s = accept t (Sym s)
