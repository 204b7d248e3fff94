# Gate: crayfish_figures reproduces the pinned bytes of its fastest figures
# and keeps its strict command line.
#   Golden: --only=fig05,fig09,fig10 writes CSVs whose sha256 match
#           bench/figures.sha256.
#   Exit codes: 2 for an unknown flag, a bad --jobs or an unknown figure;
#               non-zero when the output directory cannot be created.
# Run as: cmake -DFIGURES_BIN=... -DMANIFEST=... -DOUT_DIR=... -P check_figures.cmake

if(NOT FIGURES_BIN OR NOT MANIFEST OR NOT OUT_DIR)
  message(FATAL_ERROR "usage: cmake -DFIGURES_BIN=... -DMANIFEST=... -DOUT_DIR=... -P check_figures.cmake")
endif()

file(REMOVE_RECURSE ${OUT_DIR})
execute_process(
  COMMAND ${FIGURES_BIN} --only=fig05,fig09,fig10 --jobs=2 --out_dir=${OUT_DIR}
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "crayfish_figures --only=fig05,fig09,fig10 exited ${rc}")
endif()

file(STRINGS ${MANIFEST} manifest)
foreach(csv fig05_latency_batch.csv fig09_gpu.csv fig10_latency_sps.csv)
  set(expected "")
  foreach(line IN LISTS manifest)
    if(line MATCHES "^([0-9a-f]+)  ${csv}$")
      set(expected ${CMAKE_MATCH_1})
    endif()
  endforeach()
  if(NOT expected)
    message(FATAL_ERROR "${csv} is not in ${MANIFEST}")
  endif()
  if(NOT EXISTS ${OUT_DIR}/${csv})
    message(FATAL_ERROR "crayfish_figures did not write ${csv}")
  endif()
  file(SHA256 ${OUT_DIR}/${csv} actual)
  if(NOT actual STREQUAL expected)
    message(FATAL_ERROR "${csv}: sha256 ${actual}, pinned ${expected}")
  endif()
endforeach()

# Bad command lines exit 2 before running anything.
foreach(args "--bogus" "--jobs=x" "--jobs=0" "--jobs=-3" "--jobs=2.5"
             "--only=fig99" "--only=" "--out_dir")
  execute_process(
    COMMAND ${FIGURES_BIN} ${args}
    RESULT_VARIABLE rc
    OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "expected exit 2 for '${args}', got ${rc}")
  endif()
endforeach()

# An output directory that cannot be created (its parent is a file) is an
# error, not a silent fallback to the working directory.
file(WRITE ${OUT_DIR}/not_a_dir "")
execute_process(
  COMMAND ${FIGURES_BIN} --only=fig05 --out_dir=${OUT_DIR}/not_a_dir/sub
  RESULT_VARIABLE rc
  OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "expected a non-zero exit for an uncreatable --out_dir")
endif()

message(STATUS "crayfish_figures golden CSVs and exit codes verified")
