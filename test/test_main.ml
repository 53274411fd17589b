(* Aggregated test runner for the whole repository. *)

let () =
  Alcotest.run "lego_repro"
    [ ("reprutil", Test_reprutil.suite);
      ("prop", Test_prop.suite);
      ("stmt_type", Test_stmt_type.suite);
      ("value", Test_value.suite);
      ("storage", Test_storage.suite);
      ("cow_equiv", Test_cow_equiv.suite);
      ("coverage", Test_coverage.suite);
      ("parser", Test_parser.suite);
      ("executor", Test_executor.suite);
      ("fault", Test_fault.suite);
      ("affinity", Test_affinity.suite);
      ("synthesis", Test_synthesis.suite);
      ("lego_core", Test_lego_core.suite);
      ("dialects", Test_dialects.suite);
      ("expr_eval", Test_expr_eval.suite);
      ("printer_astutil", Test_printer_astutil.suite);
      ("planner_rewriter", Test_planner_rewriter.suite);
      ("engine", Test_engine.suite);
      ("hot_paths", Test_hot_paths.suite);
      ("reducer", Test_reducer.suite);
      ("oracle", Test_oracle.suite);
      ("campaign", Test_campaign.suite);
      ("telemetry", Test_telemetry.suite);
      ("baselines", Test_baselines.suite);
      ("extensions", Test_extensions.suite);
      ("integration", Test_integration.suite);
      ("cache", Test_cache.suite);
      ("server", Test_server.suite);
      ("schedule", Test_schedule.suite);
      ("farm", Test_farm.suite) ]
