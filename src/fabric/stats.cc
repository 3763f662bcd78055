#include "src/fabric/stats.h"

namespace fmds {

std::string ClientStats::ToString() const {
  std::string out;
#define FMDS_STATS_TO_STRING(name)               \
  out += out.empty() ? #name "=" : " " #name "="; \
  out += std::to_string(name);
  FMDS_CLIENT_STATS(FMDS_STATS_TO_STRING)
#undef FMDS_STATS_TO_STRING
  return out;
}

}  // namespace fmds
