# Worker-count flags (sweep/explore --jobs, serve --workers) take a whole
# unsigned decimal. A negative, non-numeric or trailing-garbage value must be
# rejected with exit 2 and a message before any pool or worker starts.
#
#   cmake -DCLI=<ba_cli> -DFLAG=<--jobs|--workers> "-DARGS=<cmd;args...>"
#         -P bad_jobs_test.cmake
foreach(bad -1 abc 4x)
  execute_process(COMMAND ${CLI} ${ARGS} ${FLAG} ${bad}
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${ARGS} ${FLAG} ${bad}: want exit 2, got ${rc}")
  endif()
  if(NOT err MATCHES "want a non-negative integer, got '${bad}'")
    message(FATAL_ERROR "${ARGS} ${FLAG} ${bad}: no diagnostic:\n${err}")
  endif()
endforeach()
