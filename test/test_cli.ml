(* Frozen end-to-end goldens for the rofs_sim command line.

   Each case runs the real binary at a small scale (TP, binary buddy,
   scale 0.3, 10 s measurement cap) and compares what it writes —
   stdout, stderr, the --metrics and --timeline documents and the
   checkpoint digests — byte for byte with the files in cli_golden/.
   The other suites pin the library; these pin the driver on top of it:
   which report rows each mode prints, which warnings it emits, where
   snapshots land (FILE unsharded, FILE.i per slice) and what a resumed
   run prints.

   The expected files were captured from the binary as it stood before
   the throughput drivers were merged into one.  Regenerate them only
   after an intentional output change, writing into the source tree:

     ROFS_GOLDEN_CAPTURE=$PWD/test/cli_golden \
       dune build @test/runtest-test_cli --force *)

let capture_dir = Sys.getenv_opt "ROFS_GOLDEN_CAPTURE"
let exe = Filename.concat (Sys.getcwd ()) "../bin/rofs_sim.exe"
let golden_dir = Filename.concat (Sys.getcwd ()) "cli_golden"
let base_args = [ "-w"; "tp"; "--policy"; "buddy"; "--scale"; "0.3"; "--measure-ms"; "10000" ]
let work_dir =
  lazy
    (let dir = Filename.temp_dir "rofs_cli" "" in
     at_exit (fun () ->
         Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
         Sys.rmdir dir);
     dir)
let tmp name = Filename.concat (Lazy.force work_dir) name

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* Run the binary with [base_args @ args], stdout and stderr to files;
   returns the exit code. *)
let run_cli ~stdout ~stderr args =
  Sys.command
    (Filename.quote_command exe ~stdout:(tmp stdout) ~stderr:(tmp stderr) (base_args @ args))

(* Name the first differing line: a whole-document dump of two JSON
   lines says nothing useful. *)
let first_diff expected actual =
  let e = String.split_on_char '\n' expected and a = String.split_on_char '\n' actual in
  let rec go i e a =
    match (e, a) with
    | [], [] -> "identical"
    | x :: e, y :: a when x = y -> go (i + 1) e a
    | x :: _, [] -> Printf.sprintf "line %d: expected %S, output ends" i x
    | [], y :: _ -> Printf.sprintf "line %d: unexpected %S" i y
    | x :: _, y :: _ ->
        let n = min (String.length x) (String.length y) in
        let c = ref 0 in
        while !c < n && x.[!c] = y.[!c] do incr c done;
        let show s = String.sub s !c (min 60 (String.length s - !c)) in
        Printf.sprintf "line %d, byte %d: expected %S, got %S" i !c (show x) (show y)
  in
  go 1 e a

(* Compare the produced file [actual] (in the work directory) with
   cli_golden/[golden]. *)
let check_golden ~golden actual =
  let got = read_file (tmp actual) in
  match capture_dir with
  | Some dir -> write_file (Filename.concat dir golden) got
  | None ->
      let expected = read_file (Filename.concat golden_dir golden) in
      if expected <> got then
        Alcotest.failf "%s differs from the golden: %s" golden (first_diff expected got)

let check_exit name expected code = Alcotest.(check int) (name ^ " exit code") expected code

let check_absent name =
  Alcotest.(check bool) (name ^ " not written") false (Sys.file_exists (tmp name))

(* Snapshot digests, md5sum format, one line per file in [files]. *)
let check_digests files =
  let lines =
    List.map (fun f -> Printf.sprintf "%s  %s\n" (Digest.to_hex (Digest.file (tmp f))) f) files
  in
  write_file (tmp "checkpoints.md5") (String.concat "" lines);
  check_golden ~golden:"checkpoints.md5" "checkpoints.md5"

let test_default_text () =
  check_exit "default" 0
    (run_cli ~stdout:"default.txt" ~stderr:"default.err" [ "--checkpoint"; tmp "ck" ]);
  check_golden ~golden:"default.txt" "default.txt";
  Alcotest.(check string) "no stderr" "" (read_file (tmp "default.err"))

let test_default_json () =
  check_exit "json" 0
    (run_cli ~stdout:"default.json" ~stderr:"default_json.err"
       [ "--json"; "--metrics"; tmp "default_metrics.json" ]);
  check_golden ~golden:"default.json" "default.json";
  (* --json moves the human summary to stderr, unchanged. *)
  check_golden ~golden:"default.txt" "default_json.err";
  check_golden ~golden:"default_metrics.json" "default_metrics.json"

let test_seeds () =
  (* The trace, timeline, shards and record flags are all ignored with
     --seeds; each says so on stderr and writes nothing. *)
  check_exit "seeds" 0
    (run_cli ~stdout:"seeds.json" ~stderr:"seeds.err"
       [
         "--seeds"; "1,2"; "--json"; "--metrics"; tmp "seeds_metrics.json"; "--trace";
         tmp "seeds_trace.json"; "--timeline"; tmp "seeds_tl.json"; "--timeline-every"; "5000";
         "--shards"; "2"; "--record"; tmp "seeds.trace";
       ]);
  check_golden ~golden:"seeds.json" "seeds.json";
  check_golden ~golden:"seeds.err" "seeds.err";
  check_golden ~golden:"seeds_metrics.json" "seeds_metrics.json";
  List.iter check_absent [ "seeds_trace.json"; "seeds_tl.json"; "seeds.trace" ]

let test_shards () =
  check_exit "shards" 0
    (run_cli ~stdout:"shards.json" ~stderr:"shards.err"
       [
         "--shards"; "2"; "--json"; "--timeline"; tmp "timeline.json"; "--timeline-every";
         "50000"; "--checkpoint"; tmp "sck";
       ]);
  check_golden ~golden:"shards.json" "shards.json";
  check_golden ~golden:"shards.err" "shards.err";
  check_golden ~golden:"timeline.json" "timeline.json";
  check_golden ~golden:"timeline.json.csv" "timeline.json.csv";
  check_absent "sck"

let test_alloc_only () =
  let flags = [ "--test"; "alloc"; "--timeline"; tmp "alloc_tl"; "--timeline-every"; "1000" ] in
  check_exit "alloc" 0
    (run_cli ~stdout:"alloc.txt" ~stderr:"alloc.err" (flags @ [ "--record"; tmp "alloc.trace" ]));
  check_golden ~golden:"alloc.txt" "alloc.txt";
  check_golden ~golden:"alloc.err" "alloc.err";
  check_exit "alloc sharded" 0
    (run_cli ~stdout:"alloc_shards.txt" ~stderr:"alloc_shards.err"
       (flags @ [ "--shards"; "2"; "--record"; tmp "alloc_shards.trace" ]));
  check_golden ~golden:"alloc_shards.txt" "alloc_shards.txt";
  check_golden ~golden:"alloc_shards.err" "alloc_shards.err";
  List.iter check_absent [ "alloc_tl"; "alloc.trace"; "alloc_shards.trace" ]

(* Runs after the default and shards cases, whose snapshots it checks
   and resumes from. *)
let test_checkpoints () =
  check_digests [ "ck"; "sck.0"; "sck.1"; "sck.2"; "sck.3" ];
  (* A completed run's final snapshot resumes instantly to the same
     report. *)
  check_exit "resume" 0
    (run_cli ~stdout:"resume.txt" ~stderr:"resume.err" [ "--resume"; tmp "ck" ]);
  check_golden ~golden:"default.txt" "resume.txt"

let test_refusals () =
  let refused name args =
    let code = run_cli ~stdout:"refused.out" ~stderr:"refused.err" args in
    check_exit name 2 code;
    Alcotest.(check string) (name ^ " stdout") "" (read_file (tmp "refused.out"));
    match String.split_on_char '\n' (read_file (tmp "refused.err")) with
    | first :: _ ->
        Alcotest.(check bool)
          (name ^ " one-line error") true
          (String.starts_with ~prefix:"rofs_sim: " first)
    | [] -> Alcotest.fail (name ^ ": no error line")
  in
  refused "alloc sweep" [ "--test"; "alloc"; "--seeds"; "1,2" ];
  refused "seeds checkpoint" [ "--seeds"; "1,2"; "--checkpoint"; tmp "never" ];
  refused "record checkpoint" [ "--record"; tmp "never.trace"; "--checkpoint"; tmp "never" ];
  List.iter check_absent [ "never"; "never.trace" ]

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "rofs_cli"
    [
      ( "cli golden",
        [
          case "default text and snapshot" test_default_text;
          case "default json and metrics" test_default_json;
          case "seed sweep" test_seeds;
          case "sharded json and timeline" test_shards;
          case "allocation test only" test_alloc_only;
          case "snapshot digests and resume" test_checkpoints;
        ] );
      ("cli refusal", [ case "conflicting flags exit 2" test_refusals ]);
    ]
