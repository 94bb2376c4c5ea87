# Bit-identity regression for sweep CSVs: runs a sweep binary and
# byte-compares its --csv artifact against the committed golden file.
# Invoked by ctest (see CMakeLists.txt) with:
#   -DBENCH=<path to bench_thm31_adversary_sweep or the dynbcast CLI>
#   -DSUBCOMMAND=<optional subcommand, e.g. sweep for the dynbcast CLI>
#   -DJOBS=<worker count>  (1 and 8 both must reproduce the golden bytes)
#   -DSIZES=<--sizes sweep spec, e.g. 4:128:4>
#   -DDYNAMICS=<optional --dynamics spec, e.g. edge-markovian:p=0.2,q=0.1>
#   -DSEEDS=<optional --seeds replicate count>
#   -DOBJECTIVE=<optional --objective, e.g. gossip>
#   -DBACKEND=<optional --backend selection: dense|sparse|auto — dense
#             and sparse must reproduce the SAME golden bytes at mirror
#             sizes, pinning the backends to each other>
#   -DGOLDEN=<committed CSV>
#   -DOUT=<scratch output path>
set(extra_args "")
if(DYNAMICS)
  list(APPEND extra_args "--dynamics=${DYNAMICS}")
endif()
if(SEEDS)
  list(APPEND extra_args "--seeds=${SEEDS}")
endif()
if(BACKEND)
  list(APPEND extra_args "--backend=${BACKEND}")
endif()
if(OBJECTIVE)
  list(APPEND extra_args "--objective=${OBJECTIVE}")
endif()
execute_process(
  COMMAND ${BENCH} ${SUBCOMMAND} --sizes=${SIZES} --jobs=${JOBS}
          ${extra_args} --csv=${OUT}
  RESULT_VARIABLE run_rc
  OUTPUT_QUIET)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "sweep run failed (rc=${run_rc})")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
  RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR
    "sweep CSV (jobs=${JOBS}, sizes=${SIZES}) differs from the golden "
    "file ${GOLDEN} — observable results changed. If the change is "
    "intended, regenerate the golden with the command above.")
endif()
