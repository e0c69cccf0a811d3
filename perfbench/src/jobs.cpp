#include "jobs.hpp"

#include "sim/chip.hpp"
#include "support.hpp"

namespace perfbench {

ChipRun run_chip(const ChipJob& job) {
  delta::sim::Chip chip(job.cfg, job.mix.apps, delta::sim::make_scheme(job.kind));
  ChipRun out;
  const Stopwatch sw;
  const delta::sim::MixResult result = chip.run(job.mix.name);
  out.wall_s = sw.wall();
  out.cpu_s = sw.cpu();
  out.digest = digest(result);
  for (int b = 0; b < chip.cores(); ++b) out.accesses += chip.bank(b).stats().accesses();
  return out;
}

double time_chip_setup(const ChipJob& job) {
  const Stopwatch sw;
  {
    const delta::sim::Chip chip(job.cfg, job.mix.apps,
                                delta::sim::make_scheme(job.kind));
  }
  return sw.wall();
}

MtRun run_mt(const MtJob& job) {
  MtRun out;
  out.result = delta::sim::run_multithreaded(job.cfg, *job.profile, job.kind, job.mt);
  out.digest = digest(out.result);
  return out;
}

}  // namespace perfbench
