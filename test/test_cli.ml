(* The CLI's own documentation must render: the top level and every
   subcommand (recursively, through command groups) print their
   [--help=plain] page, exit 0, and carry no cmdliner doc-markup error.
   The subcommands are discovered from the COMMANDS section of each
   page, so a new command is covered without listing it here.

   Usage: test_cli.exe PATH-TO-fastflip_cli.exe *)

let cli = Sys.argv.(1)

(* stdout and stderr of [cli ARGS --help=plain] through one pipe *)
let help args =
  let r, w = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list ((cli :: args) @ [ "--help=plain" ]) in
  let pid = Unix.create_process cli argv Unix.stdin w w in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (status, out)

(* command names in a page's COMMANDS section: lines indented by
   exactly seven spaces *)
let subcommands page =
  let in_commands = ref false in
  List.filter_map
    (fun line ->
      if line = "COMMANDS" then (in_commands := true; None)
      else if line <> "" && line.[0] <> ' ' then (in_commands := false; None)
      else if
        !in_commands && String.length line > 7 && String.sub line 0 7 = "       "
        && line.[7] <> ' '
      then Some (List.hd (String.split_on_char ' ' (String.sub line 7 (String.length line - 7))))
      else None)
    (String.split_on_char '\n' page)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let check_page path (status, out) =
  let name = String.concat " " ("fastflip" :: path) in
  Alcotest.(check bool) (name ^ " exits 0") true (status = Unix.WEXITED 0);
  Alcotest.(check bool) (name ^ " has no cmdliner error") false (contains out "cmdliner error");
  Alcotest.(check bool) (name ^ " renders a NAME section") true (contains out "NAME")

(* every command path below the top level, depth first *)
let rec walk path =
  let page = help path in
  (path, page) :: List.concat_map (fun c -> walk (path @ [ c ])) (subcommands (snd page))

let () =
  let pages = walk [] in
  Alcotest.run ~argv:[| Sys.argv.(0) |] "cli"
    [
      ( "help",
        Alcotest.test_case "discovers the subcommands" `Quick (fun () ->
            Alcotest.(check bool) "more than the top level" true (List.length pages > 10))
        :: List.map
             (fun (path, page) ->
               Alcotest.test_case
                 (String.concat " " ("fastflip" :: path) ^ " --help=plain")
                 `Quick (fun () -> check_page path page))
             pages );
    ]
