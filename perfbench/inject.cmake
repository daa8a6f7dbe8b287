# Injected into the repository's own CMake project (CMAKE_PROJECT_INCLUDE) by
# perfbench/run.py, so the benchmark driver compiles and links against the
# product libraries with the product's build settings: build type, warning
# flags, IW_SIMD tier and compiler checks all come from the top-level
# CMakeLists.txt, and a change there shows up in the benchmark.
#
# driver.cmake is included at the end of the top-level file, after every
# directory-scoped setting (C++ standard, compile definitions) is in place.
include_guard(GLOBAL)
# Deferred arguments are expanded when the call runs, hence the variable.
set(PERFBENCH_DRIVER_CMAKE "${CMAKE_CURRENT_LIST_DIR}/driver.cmake")
cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}"
               CALL include "${PERFBENCH_DRIVER_CMAKE}")
