# CLI typo ergonomics gate: a misspelled subcommand or flag must fail
# (nonzero exit) and, when EXPECT is given, suggest the nearest real one.
# Invoked by ctest with:
#   -DBIN=<dynbcast CLI>
#   -DSUBCOMMAND=<the subcommand to type, misspelled or not>
#   -DARGS=<optional ';'-separated flags after the subcommand>
#   -DEXPECT=<optional: the name the CLI must suggest>
execute_process(
  COMMAND ${BIN} ${SUBCOMMAND} ${ARGS}
  RESULT_VARIABLE run_rc
  OUTPUT_VARIABLE run_out
  ERROR_VARIABLE run_err)
if(run_rc EQUAL 0)
  message(FATAL_ERROR
    "'dynbcast ${SUBCOMMAND} ${ARGS}' exited 0 — unknown subcommands "
    "and flags must fail")
endif()
if(NOT EXPECT)
  return()
endif()
string(CONCAT combined "${run_out}" "${run_err}")
if(NOT combined MATCHES "did you mean '${EXPECT}'")
  message(FATAL_ERROR
    "'dynbcast ${SUBCOMMAND} ${ARGS}' did not suggest '${EXPECT}'; output "
    "was:\n${combined}")
endif()
