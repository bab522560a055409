let ranges ~rows ~chunk_rows =
  if chunk_rows < 1 then invalid_arg "Chunk_plan: chunk_rows must be >= 1";
  let rows = max rows 0 in
  let n = (rows + chunk_rows - 1) / chunk_rows in
  Array.init n (fun i ->
      let lo = i * chunk_rows in
      (lo, min chunk_rows (rows - lo)))
