package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestCommittedArtifacts validates every BENCH_*.json checked in at the repo
// root against its schema and invariants. CI runs this so a hand-edited or
// stale artifact cannot land silently.
func TestCommittedArtifacts(t *testing.T) {
	for _, kind := range ArtifactKinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			path := filepath.Join("..", "..", fmt.Sprintf("BENCH_%s.json", kind))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("artifact missing: %v", err)
			}
			if err := ValidateArtifact(kind, data); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestValidateArtifactRejects(t *testing.T) {
	cases := []struct {
		name string
		kind string
		doc  string
	}{
		{"unknown kind", "nope", `{}`},
		{"bad json", "lifetime", `{`},
		{"empty rows", "lifetime", `{"seed":1,"endurance_cycles":40,"page_size":64,"num_pages":24,"spares":4,"rows":[]}`},
		{"lifetime missing baseline", "lifetime",
			`{"seed":1,"endurance_cycles":40,"page_size":64,"num_pages":24,"spares":4,
			  "rows":[{"config":"managed","writes_to_first_loss":80,"data_lost":false,"lifetime_x":2,"erases":1,"max_wear":1}]}`},
		{"lifetime ratio below 2x", "lifetime",
			`{"seed":1,"endurance_cycles":40,"page_size":64,"num_pages":24,"spares":4,
			  "rows":[{"config":"unmanaged","writes_to_first_loss":40,"data_lost":true,"lifetime_x":1,"erases":1,"max_wear":1},
			          {"config":"managed","writes_to_first_loss":60,"data_lost":false,"lifetime_x":1.5,"erases":1,"max_wear":1}]}`},
		{"lifetime managed lost data", "lifetime",
			`{"seed":1,"endurance_cycles":40,"page_size":64,"num_pages":24,"spares":4,
			  "rows":[{"config":"unmanaged","writes_to_first_loss":40,"data_lost":true,"lifetime_x":1,"erases":1,"max_wear":1},
			          {"config":"managed","writes_to_first_loss":100,"data_lost":true,"lifetime_x":2.5,"erases":1,"max_wear":1}]}`},
		{"campaign with violations", "crashcampaign",
			`{"seed":1,"rows":[{"scenario":"s","cycles":10,"crashes":3,"faults_fired":2,"violation_count":1,"fingerprint":7}]}`},
		{"campaign never crashed", "crashcampaign",
			`{"seed":1,"rows":[{"scenario":"s","cycles":10,"crashes":0,"faults_fired":0,"violation_count":0,"fingerprint":7}]}`},
		{"writepath below 2x at banks", "writepath",
			`{"banks":4,"rows":[{"workers":1,"ops":10,"device_ops_per_sec":1,"speedup_vs_1_worker":1},
			                    {"workers":4,"ops":10,"device_ops_per_sec":1.5,"speedup_vs_1_worker":1.5}]}`},
		{"writepath missing host_scaling", "writepath",
			`{"banks":4,"rows":[{"workers":1,"ops":10,"device_ops_per_sec":1,"speedup_vs_1_worker":1},
			                    {"workers":4,"ops":10,"device_ops_per_sec":3,"speedup_vs_1_worker":3}]}`},
		{"writepath host_scaling unknown mode", "writepath",
			`{"banks":4,"rows":[{"workers":1,"ops":10,"device_ops_per_sec":1,"speedup_vs_1_worker":1},
			                    {"workers":4,"ops":10,"device_ops_per_sec":3,"speedup_vs_1_worker":3}],
			  "host_scaling":[
			    {"mode":"turbo","banks":4,"workers":1,"ops":10,"ns_per_op":1,"ops_per_sec":1,"allocs_per_op":0,"host_speedup":1}]}`},
		{"writepath host_scaling allocs regression", "writepath",
			`{"banks":4,"rows":[{"workers":1,"ops":10,"device_ops_per_sec":1,"speedup_vs_1_worker":1},
			                    {"workers":4,"ops":10,"device_ops_per_sec":3,"speedup_vs_1_worker":3}],
			  "host_scaling":[
			    {"mode":"serial","banks":8,"workers":1,"ops":10,"ns_per_op":1,"ops_per_sec":1,"allocs_per_op":0,"host_speedup":1},
			    {"mode":"async","banks":8,"workers":8,"depth":8,"ops":10,"ns_per_op":1,"ops_per_sec":5,"allocs_per_op":3,"host_speedup":5}]}`},
		{"encode below 3x on nbit", "encode",
			`{"seed":1,"span_bytes":4096,"e2e_ops":100,"e2e_scalar_ns_per_op":200,"e2e_kernel_ns_per_op":100,
			  "e2e_speedup":2,"stats_match":true,
			  "e2e_mlc_ops":100,"e2e_mlc_scalar_ns_per_op":400,"e2e_mlc_kernel_ns_per_op":100,"e2e_mlc_speedup":4,
			  "rows":[{"encoder":"nbit2","family":"nbit","width_bits":8,"values":4096,
			           "scalar_ns_per_value":10,"kernel_ns_per_value":5,"speedup":2},
			          {"encoder":"ncell2","family":"ncell","width_bits":8,"values":4096,
			           "scalar_ns_per_value":60,"kernel_ns_per_value":6,"speedup":10}]}`},
		{"encode stats mismatch", "encode",
			`{"seed":1,"span_bytes":4096,"e2e_ops":100,"e2e_scalar_ns_per_op":200,"e2e_kernel_ns_per_op":100,
			  "e2e_speedup":2,"stats_match":false,
			  "e2e_mlc_ops":100,"e2e_mlc_scalar_ns_per_op":400,"e2e_mlc_kernel_ns_per_op":100,"e2e_mlc_speedup":4,
			  "rows":[{"encoder":"nbit2","family":"nbit","width_bits":8,"values":4096,
			           "scalar_ns_per_value":50,"kernel_ns_per_value":5,"speedup":10},
			          {"encoder":"ncell2","family":"ncell","width_bits":8,"values":4096,
			           "scalar_ns_per_value":60,"kernel_ns_per_value":6,"speedup":10}]}`},
		{"encode below 5x on ncell", "encode",
			`{"seed":1,"span_bytes":4096,"e2e_ops":100,"e2e_scalar_ns_per_op":200,"e2e_kernel_ns_per_op":100,
			  "e2e_speedup":2,"stats_match":true,
			  "e2e_mlc_ops":100,"e2e_mlc_scalar_ns_per_op":400,"e2e_mlc_kernel_ns_per_op":100,"e2e_mlc_speedup":4,
			  "rows":[{"encoder":"nbit2","family":"nbit","width_bits":8,"values":4096,
			           "scalar_ns_per_value":50,"kernel_ns_per_value":5,"speedup":10},
			          {"encoder":"ncell2","family":"ncell","width_bits":8,"values":4096,
			           "scalar_ns_per_value":12,"kernel_ns_per_value":6,"speedup":2}]}`},
		{"encode missing ncell rows", "encode",
			`{"seed":1,"span_bytes":4096,"e2e_ops":100,"e2e_scalar_ns_per_op":200,"e2e_kernel_ns_per_op":100,
			  "e2e_speedup":2,"stats_match":true,
			  "e2e_mlc_ops":100,"e2e_mlc_scalar_ns_per_op":400,"e2e_mlc_kernel_ns_per_op":100,"e2e_mlc_speedup":4,
			  "rows":[{"encoder":"nbit2","family":"nbit","width_bits":8,"values":4096,
			           "scalar_ns_per_value":50,"kernel_ns_per_value":5,"speedup":10}]}`},
		{"encode mlc e2e below 2x", "encode",
			`{"seed":1,"span_bytes":4096,"e2e_ops":100,"e2e_scalar_ns_per_op":200,"e2e_kernel_ns_per_op":100,
			  "e2e_speedup":2,"stats_match":true,
			  "e2e_mlc_ops":100,"e2e_mlc_scalar_ns_per_op":150,"e2e_mlc_kernel_ns_per_op":100,"e2e_mlc_speedup":1.5,
			  "rows":[{"encoder":"nbit2","family":"nbit","width_bits":8,"values":4096,
			           "scalar_ns_per_value":50,"kernel_ns_per_value":5,"speedup":10},
			          {"encoder":"ncell2","family":"ncell","width_bits":8,"values":4096,
			           "scalar_ns_per_value":60,"kernel_ns_per_value":6,"speedup":10}]}`},
		{"campaign missing compact+ckpt scenario", "crashcampaign",
			`{"seed":1,"rows":[{"scenario":"kvs/mixed","cycles":10,"crashes":3,"faults_fired":2,"violation_count":0,"fingerprint":7}]}`},
		{"campaign compact+ckpt never compacted", "crashcampaign",
			`{"seed":1,"rows":[{"scenario":"kvs/compact+ckpt","cycles":10,"crashes":3,"faults_fired":2,"violation_count":0,"fingerprint":7,
			                    "compactions":0,"checkpoints":4,"checkpoint_mounts":2}]}`},
		{"kvscale speedup below 10x at max keys", "kvscale",
			`{"seed":1,"page_size":4096,"value_size":64,"hot_key_frac":0.1,"hot_op_frac":0.9,
			  "rows":[{"keys":1000,"data_pages":30,"slot_pages":3,"ops":1600,"ops_per_sec":1,
			           "compactions":5,"checkpoints":2,"live_bytes":80000,"used_bytes":100000,"space_amp":1.2,
			           "scan_mount_device_ms":8,"ckpt_mount_device_ms":1,"mount_speedup":8,"tail_pages_replayed":1}]}`},
		{"kvscale amplification above gate", "kvscale",
			`{"seed":1,"page_size":4096,"value_size":64,"hot_key_frac":0.1,"hot_op_frac":0.9,
			  "rows":[{"keys":1000,"data_pages":30,"slot_pages":3,"ops":1600,"ops_per_sec":1,
			           "compactions":5,"checkpoints":2,"live_bytes":80000,"used_bytes":200000,"space_amp":2.5,
			           "scan_mount_device_ms":15,"ckpt_mount_device_ms":1,"mount_speedup":15,"tail_pages_replayed":1}]}`},
		{"kvscale never compacted", "kvscale",
			`{"seed":1,"page_size":4096,"value_size":64,"hot_key_frac":0.1,"hot_op_frac":0.9,
			  "rows":[{"keys":1000,"data_pages":30,"slot_pages":3,"ops":1600,"ops_per_sec":1,
			           "compactions":0,"checkpoints":2,"live_bytes":80000,"used_bytes":100000,"space_amp":1.2,
			           "scan_mount_device_ms":15,"ckpt_mount_device_ms":1,"mount_speedup":15,"tail_pages_replayed":1}]}`},
		{"inflash pushdown diverged from host", "inflash",
			`{"seed":1,"page_size":256,"banks":4,"keys":2000,"buckets":100,"value_size":24,"stale_updates":100,
			  "samples":1024,"sample_width":10,
			  "rows":[{"predicate":"sel=0","selectivity_pct":1,"matches":20,"candidates":22,"false_positives":2,
			           "senses":1,"pages_sensed":1,"scan_energy_uj":0.01,"host_energy_uj":0.4,"energy_x":40,
			           "scan_device_ms":0.04,"host_device_ms":2.4,"time_x":40,"equal":false}],
			  "approx":[{"tol":4,"queries":32,"exact_matches":100,"candidates":120,"missed":0,"max_err":8,"err_budget":12,
			             "updates":256,"rejected":3,"base_update_uj":100,"flip_update_uj":1,"update_energy_x":100,
			             "base_query_uj":10,"flip_query_uj":2,"query_energy_x":5,"base_erases":250,"flip_erases":0}]}`},
		{"inflash below 3x at selective query", "inflash",
			`{"seed":1,"page_size":256,"banks":4,"keys":2000,"buckets":100,"value_size":24,"stale_updates":100,
			  "samples":1024,"sample_width":10,
			  "rows":[{"predicate":"sel=0","selectivity_pct":1,"matches":20,"candidates":22,"false_positives":2,
			           "senses":1,"pages_sensed":1,"scan_energy_uj":0.2,"host_energy_uj":0.4,"energy_x":2,
			           "scan_device_ms":1.2,"host_device_ms":2.4,"time_x":2,"equal":true}],
			  "approx":[{"tol":4,"queries":32,"exact_matches":100,"candidates":120,"missed":0,"max_err":8,"err_budget":12,
			             "updates":256,"rejected":3,"base_update_uj":100,"flip_update_uj":1,"update_energy_x":100,
			             "base_query_uj":10,"flip_query_uj":2,"query_energy_x":5,"base_erases":250,"flip_erases":0}]}`},
		{"inflash no stale bits exercised", "inflash",
			`{"seed":1,"page_size":256,"banks":4,"keys":2000,"buckets":100,"value_size":24,"stale_updates":100,
			  "samples":1024,"sample_width":10,
			  "rows":[{"predicate":"sel=0","selectivity_pct":1,"matches":20,"candidates":20,"false_positives":0,
			           "senses":1,"pages_sensed":1,"scan_energy_uj":0.01,"host_energy_uj":0.4,"energy_x":40,
			           "scan_device_ms":0.04,"host_device_ms":2.4,"time_x":40,"equal":true}],
			  "approx":[{"tol":4,"queries":32,"exact_matches":100,"candidates":120,"missed":0,"max_err":8,"err_budget":12,
			             "updates":256,"rejected":3,"base_update_uj":100,"flip_update_uj":1,"update_energy_x":100,
			             "base_query_uj":10,"flip_query_uj":2,"query_energy_x":5,"base_erases":250,"flip_erases":0}]}`},
		{"inflash approx missed a reading", "inflash",
			`{"seed":1,"page_size":256,"banks":4,"keys":2000,"buckets":100,"value_size":24,"stale_updates":100,
			  "samples":1024,"sample_width":10,
			  "rows":[{"predicate":"sel=0","selectivity_pct":1,"matches":20,"candidates":22,"false_positives":2,
			           "senses":1,"pages_sensed":1,"scan_energy_uj":0.01,"host_energy_uj":0.4,"energy_x":40,
			           "scan_device_ms":0.04,"host_device_ms":2.4,"time_x":40,"equal":true}],
			  "approx":[{"tol":4,"queries":32,"exact_matches":100,"candidates":120,"missed":1,"max_err":8,"err_budget":12,
			             "updates":256,"rejected":3,"base_update_uj":100,"flip_update_uj":1,"update_energy_x":100,
			             "base_query_uj":10,"flip_query_uj":2,"query_energy_x":5,"base_erases":250,"flip_erases":0}]}`},
		{"inflash refresh path erased", "inflash",
			`{"seed":1,"page_size":256,"banks":4,"keys":2000,"buckets":100,"value_size":24,"stale_updates":100,
			  "samples":1024,"sample_width":10,
			  "rows":[{"predicate":"sel=0","selectivity_pct":1,"matches":20,"candidates":22,"false_positives":2,
			           "senses":1,"pages_sensed":1,"scan_energy_uj":0.01,"host_energy_uj":0.4,"energy_x":40,
			           "scan_device_ms":0.04,"host_device_ms":2.4,"time_x":40,"equal":true}],
			  "approx":[{"tol":4,"queries":32,"exact_matches":100,"candidates":120,"missed":0,"max_err":8,"err_budget":12,
			             "updates":256,"rejected":3,"base_update_uj":100,"flip_update_uj":2,"update_energy_x":50,
			             "base_query_uj":10,"flip_query_uj":2,"query_energy_x":5,"base_erases":250,"flip_erases":4}]}`},
		{"encode e2e regression", "encode",
			`{"seed":1,"span_bytes":4096,"e2e_ops":100,"e2e_scalar_ns_per_op":100,"e2e_kernel_ns_per_op":200,
			  "e2e_speedup":0.5,"stats_match":true,
			  "e2e_mlc_ops":100,"e2e_mlc_scalar_ns_per_op":400,"e2e_mlc_kernel_ns_per_op":100,"e2e_mlc_speedup":4,
			  "rows":[{"encoder":"nbit2","family":"nbit","width_bits":8,"values":4096,
			           "scalar_ns_per_value":50,"kernel_ns_per_value":5,"speedup":10},
			          {"encoder":"ncell2","family":"ncell","width_bits":8,"values":4096,
			           "scalar_ns_per_value":60,"kernel_ns_per_value":6,"speedup":10}]}`},
		{"lifetime missing density sweep", "lifetime",
			`{"seed":1,"endurance_cycles":40,"page_size":64,"num_pages":24,"spares":4,
			  "rows":[{"config":"unmanaged","writes_to_first_loss":40,"data_lost":true,"lifetime_x":1,"erases":1,"max_wear":1},
			          {"config":"managed","writes_to_first_loss":100,"data_lost":false,"lifetime_x":2.5,"erases":1,"max_wear":1}]}`},
		{"lifetime density missing TLC row", "lifetime",
			`{"seed":1,"endurance_cycles":40,"page_size":64,"num_pages":24,"spares":4,
			  "rows":[{"config":"unmanaged","writes_to_first_loss":40,"data_lost":true,"lifetime_x":1,"erases":1,"max_wear":1},
			          {"config":"managed","writes_to_first_loss":100,"data_lost":false,"lifetime_x":2.5,"erases":1,"max_wear":1}],
			  "density":[
			    {"cell":"SLC","bits_per_cell":1,"capacity_x":1,"encoder":"nbit2","endurance_cycles":40,
			     "writes_to_first_loss":500,"data_lost":true,"mae":1.1,"erases":40,"max_wear":41},
			    {"cell":"MLC","bits_per_cell":2,"capacity_x":2,"encoder":"ncell2","endurance_cycles":4,
			     "writes_to_first_loss":80,"data_lost":true,"mae":1.3,"erases":5,"max_wear":5}]}`},
		{"lifetime density capacity mismatch", "lifetime",
			`{"seed":1,"endurance_cycles":40,"page_size":64,"num_pages":24,"spares":4,
			  "rows":[{"config":"unmanaged","writes_to_first_loss":40,"data_lost":true,"lifetime_x":1,"erases":1,"max_wear":1},
			          {"config":"managed","writes_to_first_loss":100,"data_lost":false,"lifetime_x":2.5,"erases":1,"max_wear":1}],
			  "density":[
			    {"cell":"SLC","bits_per_cell":1,"capacity_x":1,"encoder":"nbit2","endurance_cycles":40,
			     "writes_to_first_loss":500,"data_lost":true,"mae":1.1,"erases":40,"max_wear":41},
			    {"cell":"MLC","bits_per_cell":2,"capacity_x":3,"encoder":"ncell2","endurance_cycles":4,
			     "writes_to_first_loss":80,"data_lost":true,"mae":1.3,"erases":5,"max_wear":5},
			    {"cell":"TLC","bits_per_cell":3,"capacity_x":3,"encoder":"nbit2","endurance_cycles":1,
			     "writes_to_first_loss":20,"data_lost":true,"mae":1.5,"erases":2,"max_wear":2}]}`},
		{"lifetime density zero writes", "lifetime",
			`{"seed":1,"endurance_cycles":40,"page_size":64,"num_pages":24,"spares":4,
			  "rows":[{"config":"unmanaged","writes_to_first_loss":40,"data_lost":true,"lifetime_x":1,"erases":1,"max_wear":1},
			          {"config":"managed","writes_to_first_loss":100,"data_lost":false,"lifetime_x":2.5,"erases":1,"max_wear":1}],
			  "density":[
			    {"cell":"SLC","bits_per_cell":1,"capacity_x":1,"encoder":"nbit2","endurance_cycles":40,
			     "writes_to_first_loss":500,"data_lost":true,"mae":1.1,"erases":40,"max_wear":41},
			    {"cell":"MLC","bits_per_cell":2,"capacity_x":2,"encoder":"ncell2","endurance_cycles":4,
			     "writes_to_first_loss":80,"data_lost":true,"mae":1.3,"erases":5,"max_wear":5},
			    {"cell":"TLC","bits_per_cell":3,"capacity_x":3,"encoder":"nbit2","endurance_cycles":1,
			     "writes_to_first_loss":0,"data_lost":true,"mae":0,"erases":0,"max_wear":0}]}`},
	}
	for _, tc := range cases {
		if err := ValidateArtifact(tc.kind, []byte(tc.doc)); err == nil {
			t.Errorf("%s: validated but should have been rejected", tc.name)
		}
	}
}
