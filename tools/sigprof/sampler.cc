// SIGPROF sampling profiler, loaded with LD_PRELOAD.
//
// Every SIGPROF tick (ITIMER_PROF: process CPU time, which equals wall
// time for the single-threaded, CPU-bound simulator) the handler records
// the interrupted RIP, the word at RSP (the return address when the tick
// lands in a leaf without a frame, such as libc's memcpy) and the return
// addresses along the frame-pointer chain. At exit the samples and a copy
// of /proc/self/maps are written for tools/sigprof/profile.py to
// symbolize. The program under test needs no change; build it with
// -fno-omit-frame-pointer for complete chains.
//
// Samples kHz (1000) times per second of CPU time. SIGPROF_OUT sets the output prefix
// (default "sigprof"); the files are <prefix>.<pid>.samples and
// <prefix>.<pid>.maps.
//
// Build: g++ -O2 -shared -fPIC -o libsigprof.so tools/sigprof/sampler.cc
#include <signal.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace {

constexpr long kHz = 1000;
constexpr size_t kMaxDepth = 62;  // + RIP + [RSP] = 64 words per sample
constexpr size_t kWords = kMaxDepth + 2;
constexpr size_t kMaxSamples = 1 << 18;  // 4.5 min at 1 kHz; pages touched lazily

struct Sample {
  uint64_t n;  // words used in w
  uint64_t w[kWords];
};

Sample* g_buf = nullptr;
volatile size_t g_count = 0;
volatile size_t g_dropped = 0;
uintptr_t g_stack_hi = 0;  // end of the main thread's [stack] mapping

void on_sigprof(int, siginfo_t*, void* ctx) {
  if (g_count >= kMaxSamples) {
    g_dropped = g_dropped + 1;
    return;
  }
  const auto* uc = static_cast<const ucontext_t*>(ctx);
  const uintptr_t rip = uc->uc_mcontext.gregs[REG_RIP];
  const uintptr_t rsp = uc->uc_mcontext.gregs[REG_RSP];
  uintptr_t fp = uc->uc_mcontext.gregs[REG_RBP];
  Sample& s = g_buf[g_count];
  size_t n = 0;
  s.w[n++] = rip;
  const bool on_stack = rsp != 0 && rsp + 8 <= g_stack_hi;
  s.w[n++] = on_stack ? *reinterpret_cast<const uint64_t*>(rsp) : 0;
  // Walk saved (rbp, return address) pairs while they stay inside the
  // stack and move strictly upward; anything else ends the chain.
  while (on_stack && n < kWords && fp >= rsp && fp + 16 <= g_stack_hi &&
         (fp & 7) == 0) {
    const auto* frame = reinterpret_cast<const uint64_t*>(fp);
    if (frame[1] == 0) break;
    s.w[n++] = frame[1];
    if (frame[0] <= fp) break;
    fp = frame[0];
  }
  s.n = n;
  g_count = g_count + 1;
}

uintptr_t main_stack_end() {
  FILE* f = std::fopen("/proc/self/maps", "r");
  if (f == nullptr) return 0;
  char line[512];
  uintptr_t hi = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strstr(line, "[stack]") != nullptr) {
      unsigned long lo = 0, end = 0;
      if (std::sscanf(line, "%lx-%lx", &lo, &end) == 2) hi = end;
    }
  }
  std::fclose(f);
  return hi;
}

void copy_file(const char* from, const char* to) {
  FILE* in = std::fopen(from, "r");
  FILE* out = std::fopen(to, "w");
  if (in != nullptr && out != nullptr) {
    char buf[4096];
    size_t k;
    while ((k = std::fread(buf, 1, sizeof buf, in)) > 0) std::fwrite(buf, 1, k, out);
  }
  if (in != nullptr) std::fclose(in);
  if (out != nullptr) std::fclose(out);
}

__attribute__((destructor)) void finish() {
  if (g_buf == nullptr) return;
  const itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  const char* prefix = std::getenv("SIGPROF_OUT");
  if (prefix == nullptr || *prefix == '\0') prefix = "sigprof";
  char path[1024];
  std::snprintf(path, sizeof path, "%s.%d.maps", prefix, int(getpid()));
  copy_file("/proc/self/maps", path);
  std::snprintf(path, sizeof path, "%s.%d.samples", prefix, int(getpid()));
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) return;
  std::fprintf(f, "# samples %zu dropped %zu\n", size_t(g_count),
               size_t(g_dropped));
  for (size_t i = 0; i < g_count; ++i) {
    const Sample& s = g_buf[i];
    for (size_t j = 0; j < s.n; ++j) {
      std::fprintf(f, j == 0 ? "%lx" : " %lx", static_cast<unsigned long>(s.w[j]));
    }
    std::fputc('\n', f);
  }
  std::fclose(f);
}

__attribute__((constructor)) void start() {
  g_stack_hi = main_stack_end();
  void* p = mmap(nullptr, kMaxSamples * sizeof(Sample), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED || g_stack_hi == 0) return;
  g_buf = static_cast<Sample*>(p);
  struct sigaction sa {};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  itimerval t{};
  t.it_interval.tv_sec = 0;
  t.it_interval.tv_usec = 1000000 / kHz;
  t.it_value = t.it_interval;
  setitimer(ITIMER_PROF, &t, nullptr);
}

}  // namespace
