# Gate: crayfish_lint's exit-code contract. CI keys off the distinction:
#   0 = clean, 1 = findings, 2 = usage / internal / IO error.
# Run as: cmake -DLINT_BIN=... -DSRC_DIR=... -P check_lint_exit_codes.cmake

if(NOT LINT_BIN OR NOT SRC_DIR)
  message(FATAL_ERROR "usage: cmake -DLINT_BIN=... -DSRC_DIR=... -P check_lint_exit_codes.cmake")
endif()

# A missing input is an internal error (2), never a silent pass and never
# "findings".
execute_process(
  COMMAND ${LINT_BIN} ${SRC_DIR}/definitely_not_a_real_path_for_lint
  RESULT_VARIABLE rc_missing
  OUTPUT_QUIET ERROR_QUIET)
if(NOT rc_missing EQUAL 2)
  message(FATAL_ERROR "expected exit 2 for a missing path, got ${rc_missing}")
endif()

# No inputs at all is a usage error (2).
execute_process(
  COMMAND ${LINT_BIN}
  RESULT_VARIABLE rc_noargs
  OUTPUT_QUIET ERROR_QUIET)
if(NOT rc_noargs EQUAL 2)
  message(FATAL_ERROR "expected exit 2 with no inputs, got ${rc_noargs}")
endif()

# --help is informational (0).
execute_process(
  COMMAND ${LINT_BIN} --help
  RESULT_VARIABLE rc_help
  OUTPUT_QUIET ERROR_QUIET)
if(NOT rc_help EQUAL 0)
  message(FATAL_ERROR "expected exit 0 for --help, got ${rc_help}")
endif()

# An unknown flag is a usage error (2), never silently ignored.
execute_process(
  COMMAND ${LINT_BIN} --jobs=4 ${SRC_DIR}
  RESULT_VARIABLE rc_flag
  OUTPUT_QUIET ERROR_QUIET)
if(NOT rc_flag EQUAL 2)
  message(FATAL_ERROR "expected exit 2 for an unknown flag, got ${rc_flag}")
endif()

# A clean tree exits 0.
execute_process(
  COMMAND ${LINT_BIN} ${SRC_DIR}
  RESULT_VARIABLE rc_clean
  OUTPUT_QUIET ERROR_QUIET)
if(NOT rc_clean EQUAL 0)
  message(FATAL_ERROR "expected exit 0 for a clean tree, got ${rc_clean}")
endif()

message(STATUS "crayfish_lint exit codes verified")
