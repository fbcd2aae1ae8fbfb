
enum Motor {MX, MY, MPHI};
enum ParamSet {XPARAMS, YPARAMS, PHIPARAMS};

int:16 cmd_buffer[8];
int:16 buf_len;
int:16 opcode;
int:16 checksum;

int:16 target[3];
int:16 vmax[3];
int:16 accel[3];
int:16 velocity[3];
int:16 remaining[3];
int:16 reload[3];

int:16 NewPhi;
int:16 OldPhi;
int:16 PhiParam;

void GetByte() {
  cmd_buffer[buf_len & 7] = Buffer;
  buf_len = buf_len + 1;
  checksum = checksum + 1;
}

void DecodeOpcode() {
  opcode = cmd_buffer[0] & 63;
  checksum = cmd_buffer[0] + cmd_buffer[1];
  checksum = checksum + cmd_buffer[2];
  checksum = checksum + cmd_buffer[3];
  checksum = (checksum + cmd_buffer[4]) & 255;
  buf_len = buf_len & 7;
  opcode = opcode + 1;
}

void PrepareMove() {
  target[MX] = cmd_buffer[1];
  buf_len = 0;
  SetTrue(MOVEMENT);
}

void RequestData() {
  cmd_buffer[0] = 0;
  cmd_buffer[1] = 0;
  cmd_buffer[2] = 0;
  cmd_buffer[3] = 0;
  cmd_buffer[4] = 0;
  cmd_buffer[5] = 0;
  buf_len = 0;
  checksum = 0;
  opcode = 0;
  PhiParam = 0;
  OldPhi = 0;
  NewPhi = 0;
  target[MX] = 0;
  target[MY] = 0;
  SetFalse(MOVEMENT);
  Status = 1;
}

void PhiParameters() {
  PhiParam = NewPhi - OldPhi;
}

void AbortMove() {
  velocity[MX] = 0;
  velocity[MY] = 0;
  velocity[MPHI] = 0;
  remaining[MX] = 0;
  remaining[MY] = 0;
  remaining[MPHI] = 0;
  reload[MX] = 0;
  reload[MY] = 0;
  reload[MPHI] = 0;
  target[MX] = 0;
  target[MY] = 0;
  target[MPHI] = 0;
  XMotor = 0;
  YMotor = 0;
  PhiMotor = 0;
  buf_len = 0;
  checksum = 0;
  opcode = 0;
  PhiParam = 0;
  OldPhi = 0;
  NewPhi = 0;
  SetFalse(MOVEMENT);
  Status = 2;
}

void StartMove() {
  int:16 ramp;
  ramp = (vmax[MX] * vmax[MX]) / (accel[MX] + 1);
  if (ramp > target[MX]) { vmax[MX] = ramp - target[MX]; }
  ramp = (vmax[MY] * vmax[MY]) / (accel[MY] + 1);
  if (ramp > target[MY]) { vmax[MY] = ramp - target[MY]; }
  remaining[MX] = target[MX];
  remaining[MY] = target[MY];
  remaining[MPHI] = target[MPHI];
  velocity[MX] = accel[MX];
  velocity[MY] = accel[MY];
  velocity[MPHI] = accel[MPHI];
  OldPhi = NewPhi;
  SetFalse(XFINISH);
  SetTrue(MOVEMENT);
}

void LoadNext() {
  cmd_buffer[0] = cmd_buffer[1];
  cmd_buffer[1] = cmd_buffer[2];
  cmd_buffer[2] = cmd_buffer[3];
  cmd_buffer[3] = cmd_buffer[4];
  cmd_buffer[4] = cmd_buffer[5];
  cmd_buffer[5] = cmd_buffer[6];
  cmd_buffer[6] = cmd_buffer[7];
  cmd_buffer[7] = 0;
  opcode = cmd_buffer[0] & 63;
  checksum = checksum + cmd_buffer[1];
  buf_len = buf_len - 1;
}

void InitializeAll() {
  velocity[MX] = 0;
  velocity[MY] = 0;
  velocity[MPHI] = 0;
  remaining[MX] = 0;
  remaining[MY] = 0;
  buf_len = 0;
  checksum = 0;
  opcode = 0;
  Status = 0;
  SetFalse(MOVEMENT);
  SetFalse(XFINISH);
  SetFalse(YFINISH);
  SetFalse(PHIFINISH);
}

void Stop() {
  XMotor = 0;
  YMotor = 0;
  PhiMotor = 0;
}

void DeltaT(int:16 m) {
  int:16 v;
  v = velocity[m] + accel[m];
  velocity[m] = v;
  reload[m] = (15000 / (v + 1)) + 1;
}

void StartMotor(int:16 m, int:16 p) {
  velocity[m] = accel[m];
  reload[m] = 15000 / (accel[m] + 1);
}

void FinishMove() {
  SetFalse(MOVEMENT);
  SetFalse(XFINISH);
  SetFalse(YFINISH);
  SetFalse(PHIFINISH);
  Raise(END_DATA);
  Status = 4;
}
