# CLI rejection gate: a misspelled subcommand or flag, or an out-of-range
# value, must fail (nonzero exit); when EXPECT is given the CLI must
# suggest the nearest real name, and when MATCH is given its output must
# match that regex. Invoked by ctest with:
#   -DBIN=<dynbcast CLI>
#   -DSUBCOMMAND=<the subcommand to type, misspelled or not>
#   -DARGS=<optional ';'-separated flags after the subcommand>
#   -DEXPECT=<optional: the name the CLI must suggest>
#   -DMATCH=<optional: a regex the combined output must match>
#   -DNOMATCH=<optional: a regex the combined output must not match>
execute_process(
  COMMAND ${BIN} ${SUBCOMMAND} ${ARGS}
  RESULT_VARIABLE run_rc
  OUTPUT_VARIABLE run_out
  ERROR_VARIABLE run_err)
if(run_rc EQUAL 0)
  message(FATAL_ERROR
    "'dynbcast ${SUBCOMMAND} ${ARGS}' exited 0 — unknown subcommands, "
    "flags and out-of-range values must fail")
endif()
string(CONCAT combined "${run_out}" "${run_err}")
if(MATCH AND NOT combined MATCHES "${MATCH}")
  message(FATAL_ERROR
    "'dynbcast ${SUBCOMMAND} ${ARGS}' output does not match '${MATCH}'; "
    "output was:\n${combined}")
endif()
if(NOMATCH AND combined MATCHES "${NOMATCH}")
  message(FATAL_ERROR
    "'dynbcast ${SUBCOMMAND} ${ARGS}' output matches '${NOMATCH}'; "
    "output was:\n${combined}")
endif()
if(NOT EXPECT)
  return()
endif()
if(NOT combined MATCHES "did you mean '${EXPECT}'")
  message(FATAL_ERROR
    "'dynbcast ${SUBCOMMAND} ${ARGS}' did not suggest '${EXPECT}'; output "
    "was:\n${combined}")
endif()
