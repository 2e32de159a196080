package main

import (
	"context"
	"log/slog"
	"net"
	"strings"

	"repro/internal/distrib"
	"repro/internal/metrics"
)

// runAggregator is the -role aggregator body: no tailers, no engine, no
// checkpoint — the process follows the configured sensors (heartbeat and
// reconnect pacing on -sync-every) and serves their merged analysis
// through the same /api/v1 surface.
func runAggregator(ctx context.Context, o options, logger *slog.Logger, ready func(addr string)) int {
	switch {
	case o.sensors == "":
		logger.Error("-role aggregator requires -sensors")
		return 2
	case o.logs != "":
		logger.Error("-logs is meaningless with -role aggregator (sensors tail the logs)")
		return 2
	case o.checkpoint != "":
		logger.Error("-checkpoint is not supported with -role aggregator (sensors own durable state)")
		return 2
	}
	var sensors []string
	for _, s := range strings.Split(o.sensors, ",") {
		if s = strings.TrimSpace(s); s != "" {
			sensors = append(sensors, s)
		}
	}

	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		logger.Error("listen", "addr", o.listen, "err", err)
		return 1
	}
	defer ln.Close() // error paths; after serve it is closed already

	reg := metrics.New()
	runtimeCounters(reg)
	in, err := contextInput(o)
	if err != nil {
		logger.Error("build analysis context", "err", err)
		return 2
	}
	agg, err := distrib.NewAggregator(distrib.Config{
		Input:    in,
		Sensors:  sensors,
		Interval: o.syncEvery,
		Metrics:  reg,
		Logger:   logger,
	})
	if err != nil {
		logger.Error("start aggregator", "err", err)
		return 1
	}

	logger.Info("serving", "addr", ln.Addr().String(), "role", "aggregator",
		"sensors", len(sensors), "sync_every", o.syncEvery.String())
	mux := newMux(agg, reg, logger, o.pprof, daemonInfo{role: "aggregator", agg: agg})
	return serve(ctx, ln, mux, logger, ready, agg.Run, nil)
}
