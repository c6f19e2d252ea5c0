#include "net/link_index.hpp"

#include <algorithm>

namespace idr::net {

void LinkUserIndex::ensure_links(std::size_t count) {
  if (by_link_.size() < count) {
    by_link_.resize(count);
    link_mark_.resize(count, 0);
  }
}

void LinkUserIndex::add(UserId user, std::span<const LinkId> links) {
  if (user_mark_.size() <= user) user_mark_.resize(user + 1, kUnregistered);
  IDR_REQUIRE(user_mark_[user] == kUnregistered,
              "LinkUserIndex: user already registered");
  user_mark_[user] = 0;
  for (const LinkId l : links) {
    IDR_REQUIRE(l < by_link_.size(), "LinkUserIndex: link out of range");
    by_link_[l].push_back(user);
  }
}

void LinkUserIndex::remove(UserId user, std::span<const LinkId> links) {
  IDR_REQUIRE(user < user_mark_.size() && user_mark_[user] != kUnregistered,
              "LinkUserIndex: unknown user");
  user_mark_[user] = kUnregistered;
  for (const LinkId l : links) {
    IDR_REQUIRE(l < by_link_.size(), "LinkUserIndex: link out of range");
    auto& users = by_link_[l];
    const auto it = std::find(users.begin(), users.end(), user);
    IDR_REQUIRE(it != users.end(), "LinkUserIndex: user not on link");
    // Swap-remove: membership order is irrelevant to component walks.
    *it = users.back();
    users.pop_back();
  }
}

const std::vector<LinkUserIndex::UserId>& LinkUserIndex::users_on(
    LinkId link) const {
  IDR_REQUIRE(link < by_link_.size(), "LinkUserIndex: link out of range");
  return by_link_[link];
}

}  // namespace idr::net
