#include "src/fabric/stats.h"

#include <cstdio>

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

std::string NodeStats::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "ops=%llu in=%lluB out=%lluB indir=%llu fwd=%llu "
                "notif_fired=%llu notif_dropped=%llu notif_coalesced=%llu "
                "shed=%llu",
                static_cast<unsigned long long>(
                    ops_serviced.load(std::memory_order_relaxed)),
                static_cast<unsigned long long>(
                    bytes_in.load(std::memory_order_relaxed)),
                static_cast<unsigned long long>(
                    bytes_out.load(std::memory_order_relaxed)),
                static_cast<unsigned long long>(
                    indirections.load(std::memory_order_relaxed)),
                static_cast<unsigned long long>(
                    forwards.load(std::memory_order_relaxed)),
                static_cast<unsigned long long>(
                    notifications_fired.load(std::memory_order_relaxed)),
                static_cast<unsigned long long>(
                    notifications_dropped.load(std::memory_order_relaxed)),
                static_cast<unsigned long long>(
                    notifications_coalesced.load(std::memory_order_relaxed)),
                static_cast<unsigned long long>(
                    ops_shed.load(std::memory_order_relaxed)));
  return buf;
}

}  // namespace fmds
