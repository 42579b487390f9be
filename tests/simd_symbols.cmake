# Symbol check of the SIMD kernel tiers, run as a ctest:
#
#   cmake -DNM=<nm> -DLIB=<libnnqs.a> -P tests/simd_symbols.cmake
#
# Fails when an ISA object (simd_avx2.cpp.o, simd_avx512.cpp.o) defines a
# weak code symbol (nm type W) that another member of the archive also
# defines.  The linker keeps whichever copy it sees first, so a shared inline
# function compiled into an ISA object could otherwise run its AVX-encoded
# copy on the scalar path of a CPU without that ISA.  Weak data (types V and
# u, such as the DW.ref.__gxx_personality_v0 pointer a sanitizer build emits
# in every object) holds no instructions and is not checked.  Prints
# "SKIPPED:" (a ctest skip) when there is no nm.

if(NOT NM OR NOT EXISTS "${NM}")
  message("SKIPPED: no nm to list the symbols of ${LIB}")
  return()
endif()

execute_process(COMMAND "${NM}" -A -g --defined-only "${LIB}"
                OUTPUT_VARIABLE symbols RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${NM} failed on ${LIB}")
endif()

# Lines look like "<archive>:<member>:<address> <type> <name>".
string(REGEX MATCHALL "[^\n]*:simd_avx(2|512)\\.cpp\\.o:[0-9a-fA-F]* W [^\n]*"
       isaWeak "${symbols}")
set(clashes "")
foreach(line IN LISTS isaWeak)
  string(REGEX REPLACE "^.* W " "" name "${line}")
  string(REGEX REPLACE "([.$])" "\\\\\\1" pattern "${name}")
  string(REGEX MATCHALL " [A-Za-z] ${pattern}\n" defs "${symbols}\n")
  list(LENGTH defs count)
  if(count GREATER 1)
    string(APPEND clashes "  ${line}\n")
  endif()
endforeach()

if(clashes)
  message(FATAL_ERROR "SIMD tier objects define symbols another member of "
                      "${LIB} defines too:\n${clashes}")
endif()
list(LENGTH isaWeak checked)
message("OK: ${checked} weak code symbols of the SIMD tiers, none defined elsewhere")
