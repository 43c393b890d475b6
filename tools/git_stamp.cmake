# Writes OUTPUT, a header defining PPFS_GIT_COMMIT as the abbreviated
# commit of SOURCE_DIR's checkout with "-dirty" appended when tracked
# files differ from it ("unknown" outside a git checkout). The file is
# rewritten only when that name changes, so an unchanged tree rebuilds
# nothing. Run at build time by the ppfs_git_stamp target:
#   cmake -DSOURCE_DIR=<repo> -DOUTPUT=<header> -P tools/git_stamp.cmake
# --exclude='*' keeps the name a hash even once tags exist, so it always
# compares equal to `git rev-parse --short=12 HEAD` on a clean tree.
execute_process(
  COMMAND git describe --always --dirty --abbrev=12 --exclude=*
  WORKING_DIRECTORY ${SOURCE_DIR}
  OUTPUT_VARIABLE commit
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT commit)
  set(commit "unknown")
endif()
set(content "#define PPFS_GIT_COMMIT \"${commit}\"\n")
if(EXISTS ${OUTPUT})
  file(READ ${OUTPUT} old)
endif()
if(NOT "${old}" STREQUAL "${content}")
  file(WRITE ${OUTPUT} "${content}")
endif()
