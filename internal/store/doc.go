// Package store is the on-disk persistence layer of the serving stack: a
// content-hash-addressed columnar dataset format with CRC-checksummed
// segments, a write-ahead log of registrations with explicit fsync points
// and truncated-tail-tolerant recovery, and periodic checkpoints that
// write the manifest via atomic rename and truncate the WAL. It is the
// durability substrate the continuous-deployment shape of contrast-set
// mining needs (Qian et al., arXiv 1911.04768): a serve restart rehydrates
// the dataset registry from disk instead of forgetting every upload, and
// the registry's LRU eviction demotes datasets to a cold on-disk tier
// instead of dropping them.
//
// # On-disk layout
//
//	<dir>/MANIFEST.json   checkpointed registry state (atomic rename)
//	<dir>/wal.log         write-ahead log since the last checkpoint
//	<dir>/<id>.seg        one columnar segment file per dataset
//	<dir>/quarantine/     segment files that failed their CRC check
//
// # Durability contract
//
// Put writes the segment file and fsyncs it (file and directory) before
// the WAL register record is appended and fsynced — a WAL record therefore
// always refers to durable segments. The only other WAL record is the
// delete a quarantine logs. A checkpoint makes the manifest durable the
// same way (temp file, fsync, rename, directory fsync) before it
// truncates the WAL. Recovery reads MANIFEST.json, then replays the WAL;
// a torn WAL tail (the record being written when the process died) is
// truncated and everything before it survives. A checkpoint killed before
// its atomic rename leaves a *.tmp file that recovery removes; the
// previous manifest plus the intact WAL still reconstruct the full state.
// A bit-flipped segment is caught by its CRC at load time, moved to
// quarantine/, and surfaced as a typed *CorruptError — the store keeps
// serving every other dataset.
package store
