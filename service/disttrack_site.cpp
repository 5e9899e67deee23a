// One site process. Connects to the coordinator, joins (or resumes from
// its snapshot under --snapshot-dir), streams its shard of the synthetic
// workload, then stays resident for other sites' rituals until the
// coordinator says kShutdown.
//
//   $ ./service/disttrack_site --connect=unix:/tmp/dt.sock --site=3 \
//         --tracker=count --sites=8 --n=100000 --seed=1
//
// Site-only flags: --connect=ENDPOINT, --site=ID,
// --snapshot-dir=DIR (with the shared --snapshot-every cadence), and
// --crash-after=N (exit(7) after N arrivals in this process, at most
// one 256-arrival key block early — the recovery tests' deterministic
// crash). Every shared fleet flag must
// match the coordinator's (see service/options.h).

#include <cstdio>
#include <cstdlib>
#include <string>

#include "disttrack/service/options.h"
#include "disttrack/service/site_runtime.h"
#include "disttrack/service/socket.h"

int main(int argc, char** argv) {
  disttrack::service::SiteRuntime::Config config;
  bool have_endpoint = false;
  bool have_site = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string error;
    if (arg.rfind("--connect=", 0) == 0) {
      if (!disttrack::service::Endpoint::Parse(arg.substr(10),
                                               &config.endpoint, &error)) {
        fprintf(stderr, "disttrack_site: %s\n", error.c_str());
        return 2;
      }
      have_endpoint = true;
      continue;
    }
    if (arg.rfind("--site=", 0) == 0) {
      config.site = atoi(arg.c_str() + 7);
      have_site = true;
      continue;
    }
    if (arg.rfind("--snapshot-dir=", 0) == 0) {
      config.snapshot_dir = arg.substr(15);
      continue;
    }
    if (arg.rfind("--crash-after=", 0) == 0) {
      config.crash_after = strtoull(arg.c_str() + 14, nullptr, 10);
      continue;
    }
    if (config.options.ParseFlag(arg, &error)) continue;
    fprintf(stderr, "disttrack_site: %s\n",
            error.empty() ? ("unknown flag: " + arg).c_str() : error.c_str());
    return 2;
  }
  if (!have_endpoint || !have_site) {
    fprintf(stderr,
            "disttrack_site: --connect=ENDPOINT and --site=ID are required\n");
    return 2;
  }
  if (config.site < 0 || config.site >= config.options.num_sites) {
    fprintf(stderr, "disttrack_site: --site=%d out of range for --sites=%d\n",
            config.site, config.options.num_sites);
    return 2;
  }

  disttrack::service::SiteRuntime runtime(config);
  return runtime.Run();
}
