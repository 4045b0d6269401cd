# Every argument example_cover_time_explorer rejects must end the run with
# exit 1 and the library's message on stderr, before any trial, never with
# an uncaught exception. Run as
#   cmake -DEXPLORER=<path to example_cover_time_explorer> -P explorer_bad_args.cmake
set(cases cobra_k0 parallel_k0 missing_file)
set(cobra_k0_args --process cobra --k 0 --trials 1)
set(cobra_k0_message "CobraWalk: branching >= 1")
set(parallel_k0_args --process parallel --k 0 --trials 1)
set(parallel_k0_message "RandomWalk: no walkers")
set(missing_file_args --file ${CMAKE_CURRENT_BINARY_DIR}/no_such_edge_list.txt
  --trials 1)
set(missing_file_message "load_edge_list: cannot open")

foreach(case IN LISTS cases)
  execute_process(COMMAND ${EXPLORER} ${${case}_args}
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code STREQUAL "1")
    message(FATAL_ERROR "${case}: exit '${code}', expected 1\n${err}")
  endif()
  string(FIND "${err}" "${${case}_message}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
      "${case}: stderr lacks '${${case}_message}'\n${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "${case}: printed before failing:\n${out}")
  endif()
endforeach()
