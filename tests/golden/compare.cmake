# Golden-output check for one paper bench: runs BENCH and fails unless
# its exit status is 0 and its standard output equals GOLDEN byte for
# byte. The actual output is kept in ACTUAL for diffing.
#
#   cmake -DBENCH=<exe> -DGOLDEN=<file> -DACTUAL=<file> -P compare.cmake
execute_process(COMMAND "${BENCH}"
  OUTPUT_FILE "${ACTUAL}"
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with status ${status}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
  "${ACTUAL}" "${GOLDEN}"
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "output of ${BENCH} differs from ${GOLDEN}; "
    "see: diff ${GOLDEN} ${ACTUAL}")
endif()
