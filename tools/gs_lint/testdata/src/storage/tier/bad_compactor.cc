// Fixture for the tier-isolation check: compaction-thread code reaching
// for an executor-lattice rank, and laying out catalog pages itself. The
// declaration names a LockRank, so ranked-mutex-decl stays quiet — exactly
// two findings are seeded here.

namespace gemstone::storage::tier {

class BadCompactor {
  // Upper-lattice rank inside tier code: the seeded violation.
  Mutex mu_{LockRank::kExecutorWriter, "tier.bad_compactor_mu"};
  // The level catalog's page layout belongs to CommitManager.
  std::size_t body_ = CommitManager::kPageBodyBytes;
};

}  // namespace gemstone::storage::tier
