# CLI hardening checks, run as one CTest case:
#   cmake -DCLI=<path to fairjob_cli> -P cli_test.cmake
# Each case pins BOTH the exit code and a regex over combined stdout+stderr
# (plain WILL_FAIL / PASS_REGULAR_EXPRESSION cannot check the two together).

if(NOT DEFINED CLI)
  message(FATAL_ERROR "pass -DCLI=<path to fairjob_cli>")
endif()

set(failures 0)

# run_case(<name> <expected-exit-code> <must-match-regex> [args...])
function(run_case name expected regex)
  execute_process(
    COMMAND "${CLI}" ${ARGN}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE code
  )
  set(combined "${out}${err}")
  set(ok TRUE)
  if(NOT code STREQUAL expected)
    message(WARNING "${name}: exit code ${code}, expected ${expected}")
    set(ok FALSE)
  endif()
  if(NOT combined MATCHES "${regex}")
    message(WARNING "${name}: output does not match '${regex}':\n${combined}")
    set(ok FALSE)
  endif()
  if(NOT ok)
    math(EXPR failures "${failures} + 1")
    set(failures "${failures}" PARENT_SCOPE)
  else()
    message(STATUS "${name}: ok")
  endif()
endfunction()

# Bad invocations: nonzero exit AND usage/diagnostic text.
run_case(no_command 2 "no command given.*usage:")
run_case(unknown_command 2 "unknown command 'frobnicate'.*usage:" frobnicate)
run_case(help_exits_zero 0 "usage:" help)
run_case(unknown_flag 1 "unknown flag '--bogus'" serve-bench --bogus 1)
run_case(typoed_flag_not_silently_ignored 1 "unknown flag '--request'"
         serve-bench --request 10)
run_case(non_numeric_flag 1 "expects an integer" serve-bench --requests ten)
run_case(non_positive_flag 1 "must be positive" serve-bench --requests=-5)
run_case(bad_algorithm 1 "unknown --algorithm 'bogus'"
         serve-bench --algorithm bogus --requests 10)
run_case(unknown_flag_other_command 1 "unknown flag '--bogus'" topk --bogus 1)

# --k must be at least 1 on every Top-K command (a negative value used to
# wrap to a huge size_t and print every answer). The check runs before any
# input is read, so the missing files below are never opened.
file(WRITE "${CMAKE_CURRENT_BINARY_DIR}/cli_tiny_cube.csv"
     "axis,group,0,g0\naxis,group,1,g1\naxis,group,2,g2\n"
     "axis,query,0,q0\naxis,location,0,l0\n"
     "cell,0,0,0,0.5\ncell,1,0,0,0.25\ncell,2,0,0,0.75\n")
set(tiny_cube "${CMAKE_CURRENT_BINARY_DIR}/cli_tiny_cube.csv")
run_case(topk_negative_k 1 "--k must be at least 1, got -1"
         topk --cube ${tiny_cube} --dim group --k -1)
run_case(topk_zero_k 1 "--k must be at least 1, got 0"
         topk --cube ${tiny_cube} --dim group --k 0)
run_case(topk_prints_k_answers 0 "g2 +0.7500\n +g0 +0.5000\n\\[TA:"
         topk --cube ${tiny_cube} --dim group --k 2)
run_case(topk_bad_algorithm 1 "unknown --algorithm 'bogus'"
         topk --cube ${tiny_cube} --algorithm bogus)
# TA and the scan are the only Top-K algorithms; the FA and NRA names are
# rejected with a message naming the two that exist.
run_case(topk_rejects_fa 1 "unknown --algorithm 'fa' \\(expected ta or scan\\)"
         topk --cube ${tiny_cube} --algorithm fa)
run_case(serve_bench_rejects_nra 1
         "unknown --algorithm 'nra' \\(expected ta or scan\\)"
         serve-bench --algorithm nra --requests 10)
run_case(audit_negative_k 1 "--k must be at least 1, got -1"
         audit --crawl missing.csv --workers missing.csv --k -1)
run_case(audit_search_negative_k 1 "--k must be at least 1, got -1"
         audit-search --runs missing.csv --users missing.csv --k -1)
run_case(trend_negative_k 1 "--k must be at least 1, got -1"
         trend --cube missing.csv --cube2 missing.csv --k -1)

# A tiny serve-bench must succeed end to end and report the speedup line.
run_case(serve_bench_smoke 0 "hot/cold speedup:"
         serve-bench --requests 80 --keyspace 8 --workers 40 --cities 2)

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} CLI case(s) failed")
endif()
