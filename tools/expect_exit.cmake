# Runs bench_check over one fixture pair and fails unless it exits with
# EXPECTED. Invoked by ctest with -DBENCH_CHECK=<binary>
# -DFIXTURE=<dir holding baseline/ and current/> -DEXPECTED=<code>.
execute_process(
  COMMAND ${BENCH_CHECK} --baseline-dir=${FIXTURE}/baseline
          --current-dir=${FIXTURE}/current
  RESULT_VARIABLE rc)
if(NOT rc EQUAL EXPECTED)
  message(FATAL_ERROR "bench_check exited ${rc}, expected ${EXPECTED}")
endif()
