# Build hook for the host-cost benchmark driver. Injected into the
# top-level project without editing it:
#
#   cmake -S . -B build-bench \
#         -DCMAKE_PROJECT_abftecc_INCLUDE=$PWD/bench/perf/hook.cmake
#   cmake --build build-bench --target abftbench campaignd
#
# CMake includes this file right after project(abftecc), i.e. before the
# top-level CMAKE_CXX_STANDARD is set and before src/ defines the abftecc
# target. Link targets resolve at generate time, so naming abftecc here
# works; the language standard has to be set on the target itself.
add_executable(abftbench
  ${CMAKE_CURRENT_LIST_DIR}/abftbench.cpp
  ${CMAKE_CURRENT_LIST_DIR}/wl_sim.cpp
  ${CMAKE_CURRENT_LIST_DIR}/wl_campaign.cpp
  ${CMAKE_CURRENT_LIST_DIR}/wl_daemon.cpp
  ${CMAKE_CURRENT_LIST_DIR}/wl_native.cpp)
target_link_libraries(abftbench PRIVATE abftecc)
# The top-level add_compile_options() calls also come after this hook.
target_compile_options(abftbench PRIVATE
  -Wall -Wextra -Werror=deprecated-declarations)
set_target_properties(abftbench PROPERTIES
  CXX_STANDARD 20
  CXX_STANDARD_REQUIRED ON
  CXX_EXTENSIONS OFF
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/perf)
