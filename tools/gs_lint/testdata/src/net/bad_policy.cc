// Fixture for the net-policy check: the gateway pinning a session itself
// instead of leaving the read path to Executor::RunRequest. The kDialSafeTime
// wire constant and SetTimeDialToSafeTime are whole other words and stay
// clean — exactly one finding is seeded here.

void Server::PinnedDispatch(txn::Session* session, std::uint8_t mode) {
  if (mode == kDialSafeTime) session->SetTimeDialToSafeTime();
  txn::SnapshotPin pin(session, 7);
}
