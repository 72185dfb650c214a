// peak_rss: runs a command and reports its peak resident set size.
//
// Usage: peak_rss PROGRAM [ARGS...]
//
// Forks, execs PROGRAM and reaps it with wait4, then prints
// `peak_rss: <KB> KB` on stderr and exits with PROGRAM's exit code
// (128 + signal when it was killed; 127 when it could not be run).
// The child's ru_maxrss never reads below the RSS of the process that
// forked it, so measuring from a small C++ process rather than from a
// Python interpreter (~14 MB) lets a checker run that peaks at a few MB
// show its real peak. tools/ci.sh's bounded-memory gate measures
// through it.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: peak_rss PROGRAM [ARGS...]\n");
    return 2;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("peak_rss: fork");
    return 127;
  }
  if (pid == 0) {
    execvp(argv[1], argv + 1);
    std::perror("peak_rss: exec");
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid) {
    std::perror("peak_rss: wait4");
    return 127;
  }
  std::fprintf(stderr, "peak_rss: %ld KB\n", usage.ru_maxrss);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return WEXITSTATUS(status);
}
