// Bipartite incidence index between links and dense users.
//
// The flow simulator registers every active flow against the links it
// crosses; a rate-affecting event then only needs to recompute the
// connected component(s) of the user-link constraint graph that contain
// the changed user or link — disjoint components cannot influence each
// other's max-min allocation. The component walk is epoch-marked, so
// repeated walks reuse the same mark storage and perform no heap
// allocation once the output vectors are warm.
//
// Users are dense small integers (the flow simulator's slots), reused
// once removed, so the marks live in a vector indexed by user and a walk
// touches no hash table.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/topology.hpp"
#include "util/error.hpp"

namespace idr::net {

class LinkUserIndex {
 public:
  using UserId = std::uint32_t;

  /// Grows per-link storage to cover `count` links; existing data is kept.
  void ensure_links(std::size_t count);

  /// Registers a user crossing `links`. A user must be removed before it
  /// is registered again.
  void add(UserId user, std::span<const LinkId> links);

  /// Unregisters a user; `links` must match what was registered.
  void remove(UserId user, std::span<const LinkId> links);

  /// Users currently crossing `link` (unspecified order).
  const std::vector<UserId>& users_on(LinkId link) const;

  /// Collects the connected component(s) of the bipartite user-link graph
  /// containing the seeds. `links_of(user)` must return (a range over) the
  /// links registered for that user. Each member user/link is appended
  /// exactly once; the out vectors are cleared first and reused across
  /// calls without allocation once warm. Seed links need not have users;
  /// seed users must be registered.
  template <typename LinksOf>
  void collect_component(std::span<const UserId> seed_users,
                         std::span<const LinkId> seed_links,
                         LinksOf&& links_of, std::vector<UserId>& users_out,
                         std::vector<LinkId>& links_out) {
    ++epoch_;
    users_out.clear();
    links_out.clear();
    for (const UserId u : seed_users) mark_user(u, users_out);
    for (const LinkId l : seed_links) mark_link(l, links_out);
    std::size_t ui = 0;
    std::size_t li = 0;
    while (ui < users_out.size() || li < links_out.size()) {
      while (li < links_out.size()) {
        const LinkId l = links_out[li++];
        for (const UserId u : by_link_[l]) mark_user(u, users_out);
      }
      while (ui < users_out.size()) {
        const UserId u = users_out[ui++];
        for (const LinkId l : links_of(u)) mark_link(l, links_out);
      }
    }
  }

 private:
  // Mark of a user slot that is not registered; walks never reach it.
  static constexpr std::uint64_t kUnregistered = UINT64_MAX;

  void mark_user(UserId user, std::vector<UserId>& out) {
    IDR_REQUIRE(user < user_mark_.size() && user_mark_[user] != kUnregistered,
                "LinkUserIndex: unknown user");
    if (user_mark_[user] == epoch_) return;
    user_mark_[user] = epoch_;
    out.push_back(user);
  }

  void mark_link(LinkId link, std::vector<LinkId>& out) {
    IDR_REQUIRE(link < link_mark_.size(), "LinkUserIndex: link out of range");
    if (link_mark_[link] == epoch_) return;
    link_mark_[link] = epoch_;
    out.push_back(link);
  }

  std::vector<std::vector<UserId>> by_link_;
  std::vector<std::uint64_t> link_mark_;
  std::vector<std::uint64_t> user_mark_;  // by user; kUnregistered if free
  std::uint64_t epoch_ = 0;
};

}  // namespace idr::net
