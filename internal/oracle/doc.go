// Package oracle checks the repository's core claim — batch ≡ stream ≡
// aggregated ≡ disk-backed ≡ kill-restored, for any input order — by
// running programs against the public API and holding what they serve to
// one reference.
//
// # Contract
//
// However a finite dataset reaches the system — split across sensors, in
// any interleaving of certificates and connections (connections in
// dataset order), in batches of any size, spilled to disk, checkpointed,
// compacted, crashed at any stage of a commit, killed, restored from its
// checkpoint and re-read in another interleaving, or restarted without
// its checkpoint — once every sensor has drained and the aggregator has
// synced, the §3.2 filter and all 23 reports equal the reference, and at
// every step in between each engine's Stats — its counters and its three
// §3.2 numbers — equal the model of what it admitted.
//
// # Programs
//
// A program is one line of space-separated key=value fields, each
// optional:
//
//	seed=N          the build's seed (1)
//	scale=N         the certificate scale divisor, 500–50000 (4000)
//	spec=S          campus, or cohorts: a three-cohort fingerprinted spec
//	sensors=N       1–4 sensors behind one aggregator (1)
//	split=S         contig or rr: how connections are dealt to the sensors;
//	                every sensor gets every certificate
//	store=S         memory, or disk under a 64 KiB hot budget
//	ret=N           retention in days, 0 for none (0)
//	policy=P        block or drop (block); drop runs a two-batch buffer
//	batch=N         events per Ingest*Batch call (64)
//	order=O         the interleaving: certs-first, conns-first, chunk:K:M
//	                (K certificates, M connections, repeated) or perm:SEED
//	sync=S          poll (SyncAll) or follow (the aggregator's Run)
//	ops=OP,...,end  the fault schedule
//
// An op is name[.sensor][:arg][@pos]: it applies to one sensor or, without
// .sensor, to all; @pos (thousandths of each sensor's events) first feeds
// every live sensor that far. The ops are
//
//	read                  drain, and hold each engine's Analysis to its model
//	ck                    drain and checkpoint; the cursor names the commit
//	compact               compact the checkpoint chain
//	crash:STAGE[:compact] fail a delta (or compaction) commit at an
//	                      atomicfile stage — create, write, sync, close,
//	                      rename or syncdir — and kill the process
//	kill                  close the engine without a checkpoint; the
//	                      sensor's address answers 503
//	restore[:ORDER]       restart on the checkpoint and re-read the logs from
//	                      its cursor in another interleaving (ORDER, or the
//	                      other of certs-first and conns-first)
//	fresh[:ORDER]         restart without the checkpoint: a new numbering,
//	                      every log re-read (the 410 path)
//	sync                  bring the aggregator current and, with no sensor
//	                      down, hold its Stats and Analysis to the model
//
// Serve → kill → re-read is ck, sync, kill, restore, sync: the aggregator
// was served rows past the checkpoint the sensor restarts from. After
// the ops, end feeds the rest, restores every sensor that is down, syncs,
// and compares.
//
// # References
//
// The model of a sensor is what each Ingest*Batch call returned: the
// offered events in order (the §3.2 detector observes every one, shed or
// not), the accepted connections, and the shed count; a restore truncates
// it to the commit the cursor names. Its Stats reference is one
// interception.Stream fed the offered events; its Analysis reference is
// core.MergeShards over its roster and the accepted connections its
// window still holds under that verdict (under retention a window sweeps
// every 256 connections it applies and before every commit). The
// aggregator's is the same over every sensor, under the union of their
// evidence, holding exactly what lies within the retention behind its
// watermark; a restart owes a full resync exactly when the aggregator's
// cursor cannot be continued.
//
// At the end, the aggregator's 23 reports — and with one sensor the
// engine's Analysis and reports, under its own window — are held to:
//
//   - with retention 0 and Block, mtls.Analyze on the build;
//   - under retention, one engine with the program's retention fed the
//     union in program order (itself held to mtls.Analyze at retention 0);
//   - under Drop once a batch was shed, the model: the rule that a shed
//     connection is neither retained nor counted, but its observation
//     counts toward §3.2.
//
// # Drivers
//
// TestExplore runs a fixed list of programs spanning every dimension, in
// parallel; TestExplorerCovers checks the list against the program space.
// FuzzOracle explores the encoding. testdata/programs.txt holds every
// program that ever failed, replayed by TestCorpus; a failure prints its
// line, ready to paste there. Packages whose hand-written equivalence
// tests the oracle replaced keep their names as one program each (Test).
package oracle
