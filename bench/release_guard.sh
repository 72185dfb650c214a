# Sourced by the bench scripts (run_micro.sh, run_scaling.sh).
#
# ensure_release_build DIR [ALLOW_NONRELEASE]
#   Configures DIR as a Release tree when it has no CMake cache yet, then
#   refuses (exit 1) a tree whose CMAKE_BUILD_TYPE is not Release, unless
#   ALLOW_NONRELEASE is 1: debug/RelWithDebInfo numbers would silently
#   pollute the artifact series. An empty build type counts as Release,
#   because CMakeLists.txt builds exactly that configuration as Release.
ensure_release_build() {
  local dir="$1" allow="${2:-0}" type
  if [[ ! -f "$dir/CMakeCache.txt" ]]; then
    echo "configuring Release build dir $dir" >&2
    cmake -B "$dir" -S "$(dirname "${BASH_SOURCE[0]}")/.." \
          -DCMAKE_BUILD_TYPE=Release >/dev/null
  fi
  type=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$dir/CMakeCache.txt")
  if [[ -n "$type" && "$type" != "Release" && "$allow" != "1" ]]; then
    echo "error: $dir has CMAKE_BUILD_TYPE='$type', not Release;" \
         "benchmark numbers from it are not comparable. Point the script" \
         "at a Release dir (default: build-bench)." >&2
    exit 1
  fi
}
