(* Aggregates every suite.  Each test module exports
   [suite : string * unit Alcotest.test_case list]. *)

let () =
  Alcotest.run "levioso"
    [
      Test_util.suite;
      Test_telemetry.suite;
      Test_span.suite;
      Test_ir.suite;
      Test_builder.suite;
      Test_parser.suite;
      Test_encoding.suite;
      Test_lang.suite;
      Test_lang_props.suite;
      Test_opt.suite;
      Test_emulator.suite;
      Test_cfg.suite;
      Test_domtree.suite;
      Test_reconvergence.suite;
      Test_control_dep.suite;
      Test_branch_dep.suite;
      Test_loops.suite;
      Test_config.suite;
      Test_parallel.suite;
      Test_run_cache.suite;
      Test_tsdb.suite;
      Test_serve.suite;
      Test_predictor.suite;
      Test_tage.suite;
      Test_cache.suite;
      Test_pipeline.suite;
      Test_sampler.suite;
      Test_views.suite;
      Test_policies.suite;
      Test_differential.suite;
      Test_issue.suite;
      Test_secure.suite;
      Test_workload.suite;
      Test_attack.suite;
      Test_annotation.suite;
      Test_props.suite;
      Test_fuzz.suite;
      Test_audit.suite;
      Test_report.suite;
      Test_timeline.suite;
      Test_flowtrace.suite;
    ]
